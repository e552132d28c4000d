//! How the graph resolves its six `DB2GRAPH_*` knobs, driven through the
//! lookup seam `GraphOptions::with_lookup`, so nothing here reads or
//! writes the process environment.
//!
//! For every knob: an explicit field beats the variable; the variable
//! beats the built-in default (the field stays `None` when the variable is
//! unset); a value that does not parse falls back with exactly one
//! `config_warning` naming the knob; and an explicit field is never looked
//! up, so a bad variable beside it warns about nothing. Reading the same
//! bad value twice warns once.
//!
//! The config-warning queue is process-wide, so this binary holds one
//! test and drains the queue around every case.

use db2graph::core::{drain_config_warnings, ConfigWarning, GraphOptions};
use db2graph::reldb::Durability;

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

/// Resolve `options` with only `name` set, to `value`, and return the
/// options with the warnings the resolution recorded.
fn resolve(options: GraphOptions, name: &str, value: &str) -> (GraphOptions, Vec<ConfigWarning>) {
    drain_config_warnings();
    let resolved = options.with_lookup(|key| (key == name).then(|| value.to_string()));
    (resolved, drain_config_warnings())
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
    drain_config_warnings();
    let _ = GraphOptions::default().with_lookup(lookup);
    let _ = GraphOptions::default().with_lookup(lookup);
    assert_eq!(drain_config_warnings().len(), 1);
}
