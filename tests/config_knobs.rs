//! How the graph resolves its six `DB2GRAPH_*` knobs and the server its
//! seventeen, driven through the lookup seams `GraphOptions::with_lookup`
//! and `ServerConfig::with_lookup`, so nothing here reads or writes the
//! process environment.
//!
//! For every graph knob: an explicit field beats the variable; the
//! variable beats the built-in default (the field stays `None` when the
//! variable is unset); a value that does not parse falls back with exactly
//! one `config_warning` naming the knob; and an explicit field is never
//! looked up, so a bad variable beside it warns about nothing. Reading the
//! same bad value twice warns once.
//!
//! For every server knob: the variable beats the default, unset keeps the
//! default, a value that does not parse keeps it with exactly one
//! `config_warning` naming the knob, and each clamp holds.
//!
//! The config-warning queue is process-wide, so every resolution here
//! holds one lock while it drains the queue around itself.

use std::sync::{Mutex, PoisonError};

use db2graph::core::{drain_config_warnings, ConfigWarning, GraphOptions};
use db2graph::reldb::Durability;
use db2graph::server::ServerConfig;

struct Knob {
    name: &'static str,
    /// A value the variable parses, and the field it resolves to.
    good: (&'static str, &'static str),
    /// A value that does not parse; `None` for a path knob, which takes
    /// any non-empty string.
    bad: Option<&'static str>,
    /// Options with this knob's field set explicitly.
    explicit: fn() -> GraphOptions,
    /// This knob's field, rendered for comparison.
    field: fn(&GraphOptions) -> String,
}

const KNOBS: &[Knob] = &[
    Knob {
        name: "DB2GRAPH_THREADS",
        good: ("3", "Some(3)"),
        bad: Some("eight"),
        explicit: || GraphOptions { threads: Some(5), ..Default::default() },
        field: |o| format!("{:?}", o.threads),
    },
    Knob {
        name: "DB2GRAPH_ADJ_CACHE_MB",
        good: ("16", "Some(16)"),
        bad: Some("lots"),
        explicit: || GraphOptions { adj_cache_mb: Some(0), ..Default::default() },
        field: |o| format!("{:?}", o.adj_cache_mb),
    },
    Knob {
        name: "DB2GRAPH_TRACE",
        good: ("trace.json", "Some(\"trace.json\")"),
        bad: None,
        explicit: || GraphOptions { trace_path: Some("mine.json".into()), ..Default::default() },
        field: |o| format!("{:?}", o.trace_path),
    },
    Knob {
        name: "DB2GRAPH_SLOW_QUERY_MS",
        good: ("50", "Some(50000000)"),
        bad: Some("fast"),
        explicit: || GraphOptions { slow_query_nanos: Some(7), ..Default::default() },
        field: |o| format!("{:?}", o.slow_query_nanos),
    },
    Knob {
        name: "DB2GRAPH_DATA_DIR",
        good: ("data", "Some(\"data\")"),
        bad: None,
        explicit: || GraphOptions { data_dir: Some("mine".into()), ..Default::default() },
        field: |o| format!("{:?}", o.data_dir),
    },
    Knob {
        name: "DB2GRAPH_DURABILITY",
        good: ("batch", "Some(Batch)"),
        bad: Some("sometimes"),
        explicit: || GraphOptions { durability: Some(Durability::Off), ..Default::default() },
        field: |o| format!("{:?}", o.durability),
    },
];

/// Held while a resolution drains the process-wide warning queue.
static QUEUE: Mutex<()> = Mutex::new(());

/// Run `resolution` alone against the warning queue; return what it
/// resolved with the warnings it recorded.
fn warned<T>(resolution: impl FnOnce() -> T) -> (T, Vec<ConfigWarning>) {
    let _queue = QUEUE.lock().unwrap_or_else(PoisonError::into_inner);
    drain_config_warnings();
    let resolved = resolution();
    (resolved, drain_config_warnings())
}

/// Resolve `options` with only `name` set, to `value`, and return the
/// options with the warnings the resolution recorded.
fn resolve(options: GraphOptions, name: &str, value: &str) -> (GraphOptions, Vec<ConfigWarning>) {
    warned(|| options.with_lookup(|key| (key == name).then(|| value.to_string())))
}

#[test]
fn each_knob_resolves_explicit_then_variable_then_default() {
    for knob in KNOBS {
        let name = knob.name;
        let (good, good_field) = knob.good;
        let explicit = (knob.field)(&(knob.explicit)());

        let (o, warnings) = resolve((knob.explicit)(), name, good);
        assert_eq!((knob.field)(&o), explicit, "{name}: the explicit field wins");
        assert_eq!(warnings, [], "{name}");

        let (o, warnings) = resolve(GraphOptions::default(), name, good);
        assert_eq!((knob.field)(&o), good_field, "{name}: the variable beats the default");
        assert_eq!(warnings, [], "{name}");

        let (o, warnings) = resolve(GraphOptions::default(), "DB2GRAPH_UNRELATED", "1");
        assert_eq!((knob.field)(&o), "None", "{name}: unset leaves the built-in default");
        assert_eq!(warnings, [], "{name}");

        let Some(bad) = knob.bad else { continue };
        let (o, warnings) = resolve(GraphOptions::default(), name, bad);
        assert_eq!((knob.field)(&o), "None", "{name}: a bad value falls back to the default");
        assert_eq!(warnings.len(), 1, "{name}: {warnings:?}");
        assert_eq!((warnings[0].knob.as_str(), warnings[0].raw.as_str()), (name, bad));

        let (o, warnings) = resolve((knob.explicit)(), name, bad);
        assert_eq!((knob.field)(&o), explicit, "{name}");
        assert_eq!(warnings, [], "{name}: an explicit field is never looked up");
    }

    // A program that opens its database and then its graph resolves the
    // knobs twice; the same bad value is still one warning.
    let lookup = |key: &str| (key == "DB2GRAPH_THREADS").then(|| "eight".to_string());
    let (_, warnings) = warned(|| {
        let _ = GraphOptions::default().with_lookup(lookup);
        GraphOptions::default().with_lookup(lookup)
    });
    assert_eq!(warnings.len(), 1);
}

struct ServerKnob {
    name: &'static str,
    /// A value the variable parses, and the field it resolves to (never
    /// the default, so the case shows the variable was read).
    good: (&'static str, &'static str),
    /// A value that does not parse; `None` for a knob that takes any text.
    bad: Option<&'static str>,
    /// A value at a clamp or an emptiness rule, and the field it becomes.
    edge: Option<(&'static str, &'static str)>,
    /// This knob's field, rendered for comparison.
    field: fn(&ServerConfig) -> String,
}

const SERVER_KNOBS: &[ServerKnob] = &[
    ServerKnob {
        name: "DB2GRAPH_HTTP_ADDR",
        good: ("0.0.0.0:9000", "\"0.0.0.0:9000\""),
        bad: None,
        edge: Some(("", "\"127.0.0.1:8182\"")),
        field: |c| format!("{:?}", c.addr),
    },
    ServerKnob {
        name: "DB2GRAPH_MAX_INFLIGHT",
        good: ("3", "3"),
        bad: Some("many"),
        edge: Some(("0", "1")),
        field: |c| format!("{:?}", c.workers),
    },
    ServerKnob {
        name: "DB2GRAPH_QUERY_TIMEOUT_MS",
        good: ("250", "Some(250ms)"),
        bad: Some("soon"),
        edge: Some(("0", "None")),
        field: |c| format!("{:?}", c.query_timeout),
    },
    ServerKnob {
        name: "DB2GRAPH_CHECKPOINT_MS",
        good: ("2000", "Some(2s)"),
        bad: Some("-1"),
        edge: Some(("0", "None")),
        field: |c| format!("{:?}", c.checkpoint_interval),
    },
    ServerKnob {
        name: "DB2GRAPH_KEEPALIVE_REQUESTS",
        good: ("7", "7"),
        bad: Some("forever"),
        edge: Some(("0", "1")),
        field: |c| format!("{:?}", c.keepalive_requests),
    },
    ServerKnob {
        name: "DB2GRAPH_SESSION_IDLE_MS",
        good: ("1500", "1.5s"),
        bad: Some("idle"),
        edge: Some(("0", "1ms")),
        field: |c| format!("{:?}", c.session_idle),
    },
    ServerKnob {
        name: "DB2GRAPH_SQL_ENDPOINT",
        good: ("YES", "true"),
        bad: None,
        edge: Some(("0", "false")),
        field: |c| format!("{:?}", c.sql_endpoint),
    },
    ServerKnob {
        name: "DB2GRAPH_REPLICA_OF",
        good: ("10.0.0.1:8182", "Some(\"10.0.0.1:8182\")"),
        bad: None,
        edge: Some(("", "None")),
        field: |c| format!("{:?}", c.replica_of),
    },
    ServerKnob {
        name: "DB2GRAPH_REPLICA_POLL_MS",
        good: ("250", "250ms"),
        bad: Some("fast"),
        edge: Some(("0", "1ms")),
        field: |c| format!("{:?}", c.replica_poll),
    },
    ServerKnob {
        name: "DB2GRAPH_EVENT_LOG",
        good: ("events.jsonl", "Some(\"events.jsonl\")"),
        bad: None,
        edge: Some(("", "None")),
        field: |c| format!("{:?}", c.event_log_path),
    },
    ServerKnob {
        name: "DB2GRAPH_SLO_P99_MS",
        good: ("12.5", "Some(12.5)"),
        bad: Some("high"),
        edge: None,
        field: |c| format!("{:?}", c.slo.p99_ms),
    },
    ServerKnob {
        name: "DB2GRAPH_SLO_ERROR_PCT",
        good: ("1", "Some(1.0)"),
        bad: Some("1%"),
        edge: None,
        field: |c| format!("{:?}", c.slo.error_pct),
    },
    ServerKnob {
        name: "DB2GRAPH_MAX_REPLICA_LAG",
        good: ("100", "Some(100)"),
        bad: Some("-5"),
        edge: None,
        field: |c| format!("{:?}", c.slo.max_replica_lag),
    },
    ServerKnob {
        name: "DB2GRAPH_SLO_FSYNC_P99_MS",
        good: ("4", "Some(4.0)"),
        bad: Some("slow"),
        edge: None,
        field: |c| format!("{:?}", c.slo.fsync_p99_ms),
    },
    ServerKnob {
        name: "DB2GRAPH_SLO_MAX_SESSIONS",
        good: ("64", "Some(64)"),
        bad: Some("lots"),
        edge: None,
        field: |c| format!("{:?}", c.slo.max_sessions),
    },
    ServerKnob {
        name: "DB2GRAPH_MONITOR_MS",
        good: ("250", "250ms"),
        bad: Some("often"),
        edge: Some(("1", "10ms")),
        field: |c| format!("{:?}", c.monitor_interval),
    },
    ServerKnob {
        name: "DB2GRAPH_MONITOR_WINDOW_MS",
        good: ("5000", "5s"),
        bad: Some("long"),
        edge: Some(("5", "100ms")),
        field: |c| format!("{:?}", c.monitor_window),
    },
];

/// Resolve the default server configuration with only `name` set, to
/// `value`.
fn resolve_server(name: &str, value: &str) -> (ServerConfig, Vec<ConfigWarning>) {
    warned(|| ServerConfig::default().with_lookup(|key| (key == name).then(|| value.to_string())))
}

#[test]
fn each_server_knob_resolves_variable_then_default() {
    assert_eq!(SERVER_KNOBS.len(), 17);
    for knob in SERVER_KNOBS {
        let name = knob.name;
        let default = (knob.field)(&ServerConfig::default());

        let (good, good_field) = knob.good;
        assert_ne!(good_field, default, "{name}: the good case must not be the default");
        let (c, warnings) = resolve_server(name, good);
        assert_eq!((knob.field)(&c), good_field, "{name}: the variable beats the default");
        assert_eq!(warnings, [], "{name}");

        let (c, warnings) = resolve_server("DB2GRAPH_UNRELATED", "1");
        assert_eq!((knob.field)(&c), default, "{name}: unset keeps the default");
        assert_eq!(warnings, [], "{name}");

        if let Some((value, field)) = knob.edge {
            let (c, warnings) = resolve_server(name, value);
            assert_eq!((knob.field)(&c), field, "{name}={value:?}");
            assert_eq!(warnings, [], "{name}={value:?}");
        }

        let Some(bad) = knob.bad else { continue };
        let (c, warnings) = resolve_server(name, bad);
        assert_eq!((knob.field)(&c), default, "{name}: a bad value keeps the default");
        assert_eq!(warnings.len(), 1, "{name}: {warnings:?}");
        assert_eq!((warnings[0].knob.as_str(), warnings[0].raw.as_str()), (name, bad));
    }
}
