//! Binary serialization for graph records.
//!
//! Both baseline stores keep their data *serialized* and pay deserialization
//! on access — the cost profile the paper attributes to them: GDB-X's
//! records must be decoded on a cache miss, and the JanusGraph-like store
//! keeps "the entire adjacency list of a vertex in a somewhat encrypted form
//! in one column" that must be decoded wholesale. The format is deliberately
//! self-describing (key names and type tags inline), which is also why the
//! stores' disk usage blows up 6–7× over the relational tables (Table 3).

use gremlin::structure::{Edge, ElementId, GValue, Properties, Vertex};

/// Encoding error (corrupt or truncated buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}
impl std::error::Error for CodecError {}

pub type CodecResult<T> = Result<T, CodecError>;

/// A read cursor over a byte buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated buffer: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn read_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn read_u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn read_u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn read_i64(&mut self) -> CodecResult<i64> {
        Ok(self.read_u64()? as i64)
    }

    pub fn read_f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    pub fn read_str(&mut self) -> CodecResult<String> {
        let len = self.read_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(e.to_string()))
    }
}

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    put_u64(buf, v as u64);
}

pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ------------------------------------------------------------ element ids

pub fn put_id(buf: &mut Vec<u8>, id: &ElementId) {
    match id {
        ElementId::Long(v) => {
            put_u8(buf, 0);
            put_i64(buf, *v);
        }
        ElementId::Str(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
    }
}

pub fn read_id(c: &mut Cursor<'_>) -> CodecResult<ElementId> {
    match c.read_u8()? {
        0 => Ok(ElementId::Long(c.read_i64()?)),
        1 => Ok(ElementId::Str(c.read_str()?)),
        t => Err(CodecError(format!("bad id tag {t}"))),
    }
}

// ----------------------------------------------------------------- values

pub fn put_gvalue(buf: &mut Vec<u8>, v: &GValue) -> CodecResult<()> {
    match v {
        GValue::Null => put_u8(buf, 0),
        GValue::Long(x) => {
            put_u8(buf, 1);
            put_i64(buf, *x);
        }
        GValue::Double(x) => {
            put_u8(buf, 2);
            put_f64(buf, *x);
        }
        GValue::Str(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
        GValue::Bool(b) => {
            put_u8(buf, 4);
            put_u8(buf, *b as u8);
        }
        other => {
            return Err(CodecError(format!(
                "only scalar property values are storable, got {other}"
            )))
        }
    }
    Ok(())
}

pub fn read_gvalue(c: &mut Cursor<'_>) -> CodecResult<GValue> {
    Ok(match c.read_u8()? {
        0 => GValue::Null,
        1 => GValue::Long(c.read_i64()?),
        2 => GValue::Double(c.read_f64()?),
        3 => GValue::Str(c.read_str()?),
        4 => GValue::Bool(c.read_u8()? != 0),
        t => return Err(CodecError(format!("bad value tag {t}"))),
    })
}

pub fn put_properties(buf: &mut Vec<u8>, props: &Properties) -> CodecResult<()> {
    put_u32(buf, props.len() as u32);
    for (k, v) in props {
        put_str(buf, k);
        put_gvalue(buf, v)?;
    }
    Ok(())
}

pub fn read_properties(c: &mut Cursor<'_>) -> CodecResult<Properties> {
    let n = c.read_u32()? as usize;
    (0..n).map(|_| Ok((c.read_str()?, read_gvalue(c)?))).collect()
}

// ----------------------------------------------------------------- edges

/// Serialize a full edge record.
pub fn encode_edge(e: &Edge) -> CodecResult<Vec<u8>> {
    let mut buf = Vec::with_capacity(64);
    put_id(&mut buf, &e.id);
    put_str(&mut buf, &e.label);
    put_id(&mut buf, &e.src);
    put_id(&mut buf, &e.dst);
    put_properties(&mut buf, &e.properties)?;
    Ok(buf)
}

pub fn decode_edge(buf: &[u8]) -> CodecResult<Edge> {
    let mut c = Cursor::new(buf);
    let e = read_edge(&mut c)?;
    Ok(e)
}

pub fn read_edge(c: &mut Cursor<'_>) -> CodecResult<Edge> {
    let id = read_id(c)?;
    let label = c.read_str()?;
    let src = read_id(c)?;
    let dst = read_id(c)?;
    let properties = read_properties(c)?;
    let mut e = Edge::new(id, label, src, dst);
    e.properties = properties;
    Ok(e)
}

// --------------------------------------------------------------- vertices

/// Serialize a bare vertex (id, label, properties) without adjacency.
pub fn encode_vertex(v: &Vertex) -> CodecResult<Vec<u8>> {
    let mut buf = Vec::with_capacity(64);
    put_vertex(&mut buf, v)?;
    Ok(buf)
}

pub fn put_vertex(buf: &mut Vec<u8>, v: &Vertex) -> CodecResult<()> {
    put_id(buf, &v.id);
    put_str(buf, &v.label);
    put_properties(buf, &v.properties)
}

pub fn read_vertex(c: &mut Cursor<'_>) -> CodecResult<Vertex> {
    let id = read_id(c)?;
    let label = c.read_str()?;
    let properties = read_properties(c)?;
    let mut v = Vertex::new(id, label);
    v.properties = properties;
    Ok(v)
}

pub fn decode_vertex(buf: &[u8]) -> CodecResult<Vertex> {
    let mut c = Cursor::new(buf);
    read_vertex(&mut c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for v in [
            GValue::Null,
            GValue::Long(-42),
            GValue::Double(3.25),
            GValue::Str("héllo".into()),
            GValue::Bool(true),
        ] {
            let mut buf = Vec::new();
            put_gvalue(&mut buf, &v).unwrap();
            let mut c = Cursor::new(&buf);
            assert_eq!(read_gvalue(&mut c).unwrap(), v);
            assert_eq!(c.remaining(), 0);
        }
        // Non-scalar values are rejected.
        let mut buf = Vec::new();
        assert!(put_gvalue(&mut buf, &GValue::List(vec![])).is_err());
    }

    #[test]
    fn id_roundtrips() {
        for id in [ElementId::Long(7), ElementId::Str("patient::1".into())] {
            let mut buf = Vec::new();
            put_id(&mut buf, &id);
            let mut c = Cursor::new(&buf);
            assert_eq!(read_id(&mut c).unwrap(), id);
        }
    }

    #[test]
    fn vertex_and_edge_roundtrip() {
        let v = Vertex::new("p::1", "patient")
            .with_property("name", "Alice")
            .with_property("age", 30i64);
        let buf = encode_vertex(&v).unwrap();
        let v2 = decode_vertex(&buf).unwrap();
        assert_eq!(v2.id, v.id);
        assert_eq!(v2.label, v.label);
        assert_eq!(v2.properties, v.properties);

        let e = Edge::new(5i64, "knows", "p::1", "p::2").with_property("since", 2019i64);
        let buf = encode_edge(&e).unwrap();
        let e2 = decode_edge(&buf).unwrap();
        assert_eq!(e2.id, e.id);
        assert_eq!(e2.src, e.src);
        assert_eq!(e2.dst, e.dst);
        assert_eq!(e2.properties, e.properties);
    }

    #[test]
    fn truncation_is_detected() {
        let v = Vertex::new(1, "x").with_property("a", 1i64);
        let buf = encode_vertex(&v).unwrap();
        for cut in [1, buf.len() / 2, buf.len() - 1] {
            assert!(decode_vertex(&buf[..cut]).is_err());
        }
        // Bad tags detected.
        let mut c = Cursor::new(&[9u8]);
        assert!(read_gvalue(&mut c).is_err());
    }
}
