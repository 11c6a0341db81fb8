//! The self-describing wire value tree.

use std::fmt;

use vcad_logic::{Logic, LogicVec, Word};

use crate::wire::{WireError, WireReader, WireWriter, MAX_FIELD};

/// Identifier of an object exported through an
/// [`ObjectRegistry`](crate::ObjectRegistry).
///
/// Id `0` is reserved for the server's *root* (bootstrap) object — the
/// analogue of an RMI registry lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The well-known root object every server exports.
    pub const ROOT: ObjectId = ObjectId(0);
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// A marshallable value: everything that may legally cross the IP
/// user/provider boundary.
///
/// The domain intentionally mirrors JavaCAD's argument-marshalling design:
/// simulation values ([`Value::Logic`], [`Value::Vec`], [`Value::Word`]),
/// plain configuration scalars, containers, and remote object references.
/// Anything else — above all, design structure — has no representation and
/// therefore *cannot* be serialised, which is the first line of the
/// paper's IP-protection argument.
///
/// # Examples
///
/// ```
/// use vcad_rmi::Value;
/// use vcad_logic::Word;
///
/// let v = Value::List(vec![Value::Word(Word::new(16, 1234)), Value::I64(-1)]);
/// let bytes = v.encode();
/// assert_eq!(Value::decode(&bytes)?, v);
/// # Ok::<(), vcad_rmi::WireError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// The absence of a value (also the null estimator's result).
    Null,
    /// A boolean flag.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// A floating-point number (cost metrics, fees, times).
    F64(f64),
    /// A short text label (method selectors, parameter names).
    Str(String),
    /// An opaque byte blob (pattern buffers).
    Bytes(Vec<u8>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// An ordered string-keyed map.
    Map(Vec<(String, Value)>),
    /// A scalar logic value.
    Logic(Logic),
    /// A logic vector (port data).
    Vec(LogicVec),
    /// A binary RT-level word.
    Word(Word),
    /// A reference to an object exported by the peer.
    ObjectRef(ObjectId),
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_MAP: u8 = 7;
const TAG_LOGIC: u8 = 8;
const TAG_VEC: u8 = 9;
const TAG_WORD: u8 = 10;
const TAG_OBJREF: u8 = 11;

impl Value {
    /// Encodes the value to its canonical binary form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.write(&mut w);
        w.into_bytes()
    }

    /// Decodes a value, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Value, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Value::read(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Appends the value's encoding to an open writer.
    pub(crate) fn write(&self, w: &mut WireWriter) {
        match self {
            Value::Null => w.u8(TAG_NULL),
            Value::Bool(b) => {
                w.u8(TAG_BOOL);
                w.u8(u8::from(*b));
            }
            Value::I64(v) => {
                w.u8(TAG_I64);
                w.i64(*v);
            }
            Value::F64(v) => {
                w.u8(TAG_F64);
                w.f64(*v);
            }
            Value::Str(s) => {
                w.u8(TAG_STR);
                w.str(s);
            }
            Value::Bytes(b) => {
                w.u8(TAG_BYTES);
                w.bytes(b);
            }
            Value::List(items) => {
                w.u8(TAG_LIST);
                w.u32(items.len() as u32);
                for item in items {
                    item.write(w);
                }
            }
            Value::Map(entries) => {
                w.u8(TAG_MAP);
                w.u32(entries.len() as u32);
                for (k, v) in entries {
                    w.str(k);
                    v.write(w);
                }
            }
            Value::Logic(l) => {
                w.u8(TAG_LOGIC);
                w.u8(match l {
                    Logic::Zero => 0,
                    Logic::One => 1,
                    Logic::X => 2,
                    Logic::Z => 3,
                });
            }
            Value::Vec(v) => {
                w.u8(TAG_VEC);
                w.u32(v.width() as u32);
                // Two bits per element, value plane bit 0, meta plane bit 1.
                let mut packed = vec![0u8; v.width().div_ceil(4)];
                for (i, bit) in v.iter().enumerate() {
                    let code = match bit {
                        Logic::Zero => 0u8,
                        Logic::One => 1,
                        Logic::X => 2,
                        Logic::Z => 3,
                    };
                    packed[i / 4] |= code << (2 * (i % 4));
                }
                w.bytes(&packed);
            }
            Value::Word(word) => {
                w.u8(TAG_WORD);
                w.u8(word.width() as u8);
                w.u128(word.value());
            }
            Value::ObjectRef(id) => {
                w.u8(TAG_OBJREF);
                w.u64(id.0);
            }
        }
    }

    /// Reads one value from an open reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input, including container
    /// nesting deeper than [`Value::MAX_DEPTH`] (a hostile frame must not
    /// be able to exhaust the decoder's stack).
    pub(crate) fn read(r: &mut WireReader<'_>) -> Result<Value, WireError> {
        Self::read_at_depth(r, 0)
    }

    /// Maximum container nesting the decoder accepts.
    pub const MAX_DEPTH: usize = 64;

    fn read_at_depth(r: &mut WireReader<'_>, depth: usize) -> Result<Value, WireError> {
        if depth > Self::MAX_DEPTH {
            return Err(WireError::BadValue("nesting too deep"));
        }
        match r.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => Ok(Value::Bool(r.u8()? != 0)),
            TAG_I64 => Ok(Value::I64(r.i64()?)),
            TAG_F64 => Ok(Value::F64(r.f64()?)),
            TAG_STR => Ok(Value::Str(r.str()?.to_owned())),
            TAG_BYTES => Ok(Value::Bytes(r.bytes()?.to_vec())),
            TAG_LIST => {
                let n = u64::from(r.u32()?);
                if n > MAX_FIELD {
                    return Err(WireError::OversizedField(n));
                }
                let mut items = Vec::with_capacity(n.min(4096) as usize);
                for _ in 0..n {
                    items.push(Value::read_at_depth(r, depth + 1)?);
                }
                Ok(Value::List(items))
            }
            TAG_MAP => {
                let n = u64::from(r.u32()?);
                if n > MAX_FIELD {
                    return Err(WireError::OversizedField(n));
                }
                let mut entries = Vec::with_capacity(n.min(4096) as usize);
                for _ in 0..n {
                    let k = r.str()?.to_owned();
                    let v = Value::read_at_depth(r, depth + 1)?;
                    entries.push((k, v));
                }
                Ok(Value::Map(entries))
            }
            TAG_LOGIC => Ok(Value::Logic(match r.u8()? {
                0 => Logic::Zero,
                1 => Logic::One,
                2 => Logic::X,
                3 => Logic::Z,
                _ => return Err(WireError::BadValue("logic code")),
            })),
            TAG_VEC => {
                let width = r.u32()? as usize;
                if width as u64 > MAX_FIELD {
                    return Err(WireError::OversizedField(width as u64));
                }
                let packed = r.bytes()?;
                if packed.len() != width.div_ceil(4) {
                    return Err(WireError::BadValue("logic vector payload size"));
                }
                let mut v = LogicVec::zeros(width);
                for i in 0..width {
                    let code = packed[i / 4] >> (2 * (i % 4)) & 0b11;
                    let bit = match code {
                        0 => Logic::Zero,
                        1 => Logic::One,
                        2 => Logic::X,
                        _ => Logic::Z,
                    };
                    v.set(i, bit);
                }
                Ok(Value::Vec(v))
            }
            TAG_WORD => {
                let width = usize::from(r.u8()?);
                if width > 128 {
                    return Err(WireError::BadValue("word width"));
                }
                let value = r.u128()?;
                Ok(Value::Word(Word::new(width, value)))
            }
            TAG_OBJREF => Ok(Value::ObjectRef(ObjectId(r.u64()?))),
            other => Err(WireError::BadTag(other)),
        }
    }

    /// Encoded size in bytes, used for network-cost accounting.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        // Exact and cheap enough: re-walk the structure.
        let mut w = WireWriter::new();
        self.write(&mut w);
        w.len()
    }

    /// Extracts an `i64` if this is [`Value::I64`].
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts an `f64` if this is [`Value::F64`] (or an exact `I64`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extracts a string slice if this is [`Value::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a `bool` if this is [`Value::Bool`].
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts the list items if this is [`Value::List`].
    #[must_use]
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Extracts a [`LogicVec`] if this is [`Value::Vec`].
    #[must_use]
    pub fn as_logic_vec(&self) -> Option<&LogicVec> {
        match self {
            Value::Vec(v) => Some(v),
            _ => None,
        }
    }

    /// Extracts an [`ObjectId`] if this is [`Value::ObjectRef`].
    #[must_use]
    pub fn as_object(&self) -> Option<ObjectId> {
        match self {
            Value::ObjectRef(id) => Some(*id),
            _ => None,
        }
    }

    /// Looks up a key if this is [`Value::Map`].
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Logic> for Value {
    fn from(v: Logic) -> Value {
        Value::Logic(v)
    }
}

impl From<LogicVec> for Value {
    fn from(v: LogicVec) -> Value {
        Value::Vec(v)
    }
}

impl From<Word> for Value {
    fn from(v: Word) -> Value {
        Value::Word(v)
    }
}

impl From<ObjectId> for Value {
    fn from(v: ObjectId) -> Value {
        Value::ObjectRef(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Map(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                f.write_str("}")
            }
            Value::Logic(l) => write!(f, "{l}"),
            Value::Vec(v) => write!(f, "{v}"),
            Value::Word(w) => write!(f, "{w}"),
            Value::ObjectRef(id) => write!(f, "{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let bytes = v.encode();
        assert_eq!(bytes.len(), v.encoded_len());
        assert_eq!(&Value::decode(&bytes).unwrap(), v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Value::Null);
        round_trip(&Value::Bool(true));
        round_trip(&Value::I64(i64::MIN));
        round_trip(&Value::F64(-0.125));
        round_trip(&Value::Str("remote method".into()));
        round_trip(&Value::Bytes(vec![0, 255, 128]));
        round_trip(&Value::Logic(Logic::Z));
        round_trip(&Value::Word(Word::new(128, u128::MAX)));
        round_trip(&Value::ObjectRef(ObjectId(99)));
    }

    #[test]
    fn logic_vec_round_trip() {
        let v: LogicVec = "01XZ10ZX01".parse().unwrap();
        round_trip(&Value::Vec(v));
        round_trip(&Value::Vec(LogicVec::zeros(0)));
        round_trip(&Value::Vec(LogicVec::unknown(200)));
    }

    #[test]
    fn nested_containers_round_trip() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("MULT".into())),
            (
                "ports".into(),
                Value::List(vec![
                    Value::Vec("1010".parse().unwrap()),
                    Value::Word(Word::new(16, 0xBEEF)),
                ]),
            ),
            ("fee".into(), Value::F64(0.1)),
        ]);
        round_trip(&v);
        assert_eq!(v.get("fee").and_then(Value::as_f64), Some(0.1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(Value::decode(&[0xEE]), Err(WireError::BadTag(0xEE)));
    }

    #[test]
    fn decode_rejects_bad_logic_code() {
        assert_eq!(
            Value::decode(&[8, 9]),
            Err(WireError::BadValue("logic code"))
        );
    }

    #[test]
    fn decode_rejects_oversized_word() {
        let mut w = WireWriter::new();
        w.u8(10); // TAG_WORD
        w.u8(200); // width 200 > 128
        w.u128(0);
        assert_eq!(
            Value::decode(&w.into_bytes()),
            Err(WireError::BadValue("word width"))
        );
    }

    #[test]
    fn decode_rejects_hostile_nesting() {
        // A frame of 100k nested single-element lists must be rejected by
        // the depth guard, not by stack exhaustion.
        let depth = 100_000;
        let mut bytes = Vec::with_capacity(depth * 5 + 1);
        for _ in 0..depth {
            bytes.push(6); // TAG_LIST
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(0); // innermost Null
        assert_eq!(
            Value::decode(&bytes),
            Err(WireError::BadValue("nesting too deep"))
        );
        // Legal nesting below the limit still decodes.
        let mut v = Value::Null;
        for _ in 0..Value::MAX_DEPTH {
            v = Value::List(vec![v]);
        }
        assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = Value::Null.encode();
        bytes.push(0);
        assert_eq!(Value::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn accessors_reject_wrong_kind() {
        assert_eq!(Value::Str("x".into()).as_i64(), None);
        assert_eq!(Value::I64(3).as_str(), None);
        assert_eq!(Value::I64(3).as_f64(), Some(3.0));
    }

    #[test]
    fn display_is_readable() {
        let v = Value::List(vec![Value::I64(1), Value::Str("a".into())]);
        assert_eq!(v.to_string(), "[1, \"a\"]");
    }
}
