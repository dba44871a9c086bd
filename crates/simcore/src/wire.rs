//! # One binary codec for every persisted format
//!
//! The `BCSS` snapshot, the `BCCK` checkpoint payloads, the compact
//! binary trace and the `bc-serve` journal all build on this module. It
//! has two layers.
//!
//! **Primitives**, each written once:
//!
//! | codec | Rust type | bytes |
//! |---|---|---|
//! | [`Byte`] | `u8` | one raw byte |
//! | [`Bool`] | `bool` | `0` or `1` |
//! | [`Leb`] | `u32`/`u64`/`usize` | unsigned LEB128, minimal form |
//! | [`Le`] | `u32`/`u64`/`u128` | fixed-width little-endian |
//! | [`Opt`] | `Option<T>` | tag `0`, or tag `1` + value |
//! | [`ZeroNone`] | `Option<T>` | byte `0`, or the value (its tags are nonzero) |
//! | [`Seq`] | `Vec<T>` | length (by a length codec) + items |
//! | [`Utf8`] / [`Bytes`] | `String` / `Vec<u8>` | length + raw bytes |
//!
//! and combinators over them ([`Arr`], [`Via`], [`Checked`], tuples).
//!
//! **Declarations.** [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) declare a type's layout once, as
//! `field: codec` pairs or `tag => variant` arms, and generate both
//! directions from that one list — the field order cannot drift between
//! an encoder and a decoder because there is only one. A struct
//! declaration must name every field, or it does not compile.
//!
//! The reader is total: every failure is a [`WireError`] value, lengths
//! are capped by the bytes that remain before anything is allocated, and
//! LEB128 rejects overflow, non-minimal encodings and out-of-range
//! narrowing, so a decoded value re-encodes to exactly its input.
//! Semantic checks (tree shape, CSR offsets, ...) stay with each format's
//! owner, as explicit code after the generic decode or as a [`Checked`]
//! codec.

/// Why a decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended mid-field (or a length prefix exceeds what remains).
    Truncated,
    /// A field holds a value its type does not allow.
    Corrupt(&'static str),
}

/// A checked cursor over an input buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The unconsumed tail.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Reads one raw byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let v = self.peek()?;
        self.pos += 1;
        Ok(v)
    }

    /// The next byte, without consuming it.
    #[inline]
    fn peek(&self) -> Result<u8, WireError> {
        self.buf.get(self.pos).copied().ok_or(WireError::Truncated)
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Decodes one value with `codec`.
    pub fn get<T, C: Codec<T>>(&mut self, codec: &C) -> Result<T, WireError> {
        codec.get(self)
    }

    /// Reads a length prefix with `len` and caps it by the bytes that
    /// remain: `n` records of at least `min_record` bytes each must fit,
    /// so a hostile length can never drive an allocation.
    pub fn len<L: Codec<u64>>(&mut self, len: &L, min_record: usize) -> Result<usize, WireError> {
        let n = len.get(self)?;
        if n > (self.remaining() / min_record.max(1)) as u64 {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) has N bytes"))
    }

    #[inline]
    fn leb(&mut self) -> Result<u64, WireError> {
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        let mut v = u64::from(first & 0x7f);
        let mut shift = 7u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Corrupt("varint overflow"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // A zero final byte after the first adds nothing: the
                // value has a shorter encoding.
                if byte == 0 {
                    return Err(WireError::Corrupt("non-minimal varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// One type's byte layout, both directions. Codecs are small values
/// (mostly zero-sized), so a layout is an expression such as
/// `Seq(Leb, Opt(Leb, "…"))`.
pub trait Codec<T> {
    /// Appends the encoding of `v`.
    fn put(&self, out: &mut Vec<u8>, v: &T);
    /// Decodes one value.
    fn get(&self, r: &mut Reader<'_>) -> Result<T, WireError>;
    /// A lower bound on the encoded size, used to cap hostile lengths of
    /// sequences of this type.
    fn min_len(&self) -> usize {
        1
    }
}

/// A raw byte.
#[derive(Debug, Clone, Copy)]
pub struct Byte;

impl Codec<u8> for Byte {
    #[inline]
    fn put(&self, out: &mut Vec<u8>, v: &u8) {
        out.push(*v);
    }
    #[inline]
    fn get(&self, r: &mut Reader<'_>) -> Result<u8, WireError> {
        r.u8()
    }
}

/// A `bool` as one byte, `0` or `1`.
#[derive(Debug, Clone, Copy)]
pub struct Bool;

impl Codec<bool> for Bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>, v: &bool) {
        out.push(*v as u8);
    }
    #[inline]
    fn get(&self, r: &mut Reader<'_>) -> Result<bool, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool out of range")),
        }
    }
}

/// Unsigned LEB128. Decoding rejects overflow, non-minimal encodings,
/// and values that do not fit the target type.
#[derive(Debug, Clone, Copy)]
pub struct Leb;

impl Codec<u64> for Leb {
    /// Appends `v` in its minimal form.
    #[inline]
    fn put(&self, out: &mut Vec<u8>, v: &u64) {
        let mut v = *v;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }
    #[inline]
    fn get(&self, r: &mut Reader<'_>) -> Result<u64, WireError> {
        r.leb()
    }
}

impl Codec<u32> for Leb {
    #[inline]
    fn put(&self, out: &mut Vec<u8>, v: &u32) {
        Leb.put(out, &u64::from(*v));
    }
    #[inline]
    fn get(&self, r: &mut Reader<'_>) -> Result<u32, WireError> {
        Narrow("u32 out of range").get(r)
    }
}

impl Codec<usize> for Leb {
    #[inline]
    fn put(&self, out: &mut Vec<u8>, v: &usize) {
        Leb.put(out, &(*v as u64));
    }
    #[inline]
    fn get(&self, r: &mut Reader<'_>) -> Result<usize, WireError> {
        usize::try_from(r.leb()?).map_err(|_| WireError::Corrupt("usize out of range"))
    }
}

/// A `u32` as LEB128, with a field-specific message when the decoded
/// value does not fit.
#[derive(Debug, Clone, Copy)]
pub struct Narrow(pub &'static str);

impl Codec<u32> for Narrow {
    #[inline]
    fn put(&self, out: &mut Vec<u8>, v: &u32) {
        Leb.put(out, &u64::from(*v));
    }
    #[inline]
    fn get(&self, r: &mut Reader<'_>) -> Result<u32, WireError> {
        u32::try_from(r.leb()?).map_err(|_| WireError::Corrupt(self.0))
    }
}

/// Fixed-width little-endian integers.
#[derive(Debug, Clone, Copy)]
pub struct Le;

macro_rules! le_codec {
    ($($t:ty),*) => {$(
        impl Codec<$t> for Le {
            #[inline]
            fn put(&self, out: &mut Vec<u8>, v: &$t) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            #[inline]
            fn get(&self, r: &mut Reader<'_>) -> Result<$t, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
            #[inline]
            fn min_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}
le_codec!(u32, u64, u128);

/// `Option<T>`: tag `0`, or tag `1` followed by the value. The message
/// names the field when the tag is neither.
#[derive(Debug, Clone, Copy)]
pub struct Opt<C>(pub C, pub &'static str);

/// [`Opt`] with the generic "option tag out of range" message.
pub const fn opt<C>(c: C) -> Opt<C> {
    Opt(c, "option tag out of range")
}

impl<T, C: Codec<T>> Codec<Option<T>> for Opt<C> {
    fn put(&self, out: &mut Vec<u8>, v: &Option<T>) {
        match v {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                self.0.put(out, v);
            }
        }
    }
    fn get(&self, r: &mut Reader<'_>) -> Result<Option<T>, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => self.0.get(r).map(Some),
            _ => Err(WireError::Corrupt(self.1)),
        }
    }
}

/// `Option<T>` sharing its tag byte with `T`'s own: `None` is byte `0`,
/// `Some` is the value, whose encoding must start with a nonzero tag.
#[derive(Debug, Clone, Copy)]
pub struct ZeroNone<C>(pub C);

impl<T, C: Codec<T>> Codec<Option<T>> for ZeroNone<C> {
    fn put(&self, out: &mut Vec<u8>, v: &Option<T>) {
        match v {
            None => out.push(0),
            Some(v) => self.0.put(out, v),
        }
    }
    fn get(&self, r: &mut Reader<'_>) -> Result<Option<T>, WireError> {
        if r.peek()? == 0 {
            r.u8()?;
            return Ok(None);
        }
        self.0.get(r).map(Some)
    }
}

/// `Vec<T>`: a length written with the length codec `L` ([`Leb`] or
/// [`Le`]), then the items.
#[derive(Debug, Clone, Copy)]
pub struct Seq<L, C>(pub L, pub C);

impl<T, L: Codec<u64>, C: Codec<T>> Codec<Vec<T>> for Seq<L, C> {
    fn put(&self, out: &mut Vec<u8>, v: &Vec<T>) {
        self.0.put(out, &(v.len() as u64));
        put_rows(&self.1, out, v);
    }
    fn get(&self, r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
        let n = r.len(&self.0, self.1.min_len())?;
        get_rows(&self.1, r, n)
    }
    fn min_len(&self) -> usize {
        self.0.min_len()
    }
}

/// A `String`: a length written with `L`, then UTF-8 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Utf8<L>(pub L);

impl<L: Codec<u64>> Codec<String> for Utf8<L> {
    fn put(&self, out: &mut Vec<u8>, v: &String) {
        self.0.put(out, &(v.len() as u64));
        out.extend_from_slice(v.as_bytes());
    }
    fn get(&self, r: &mut Reader<'_>) -> Result<String, WireError> {
        let n = r.len(&self.0, 1)?;
        std::str::from_utf8(r.bytes(n)?)
            .map(str::to_owned)
            .map_err(|_| WireError::Corrupt("string not UTF-8"))
    }
    fn min_len(&self) -> usize {
        self.0.min_len()
    }
}

/// A `Vec<u8>`: a length written with `L`, then the raw bytes.
#[derive(Debug, Clone, Copy)]
pub struct Bytes<L>(pub L);

impl<L: Codec<u64>> Codec<Vec<u8>> for Bytes<L> {
    fn put(&self, out: &mut Vec<u8>, v: &Vec<u8>) {
        self.0.put(out, &(v.len() as u64));
        out.extend_from_slice(v);
    }
    fn get(&self, r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        let n = r.len(&self.0, 1)?;
        Ok(r.bytes(n)?.to_vec())
    }
    fn min_len(&self) -> usize {
        self.0.min_len()
    }
}

/// A fixed-size array, item by item.
#[derive(Debug, Clone, Copy)]
pub struct Arr<C>(pub C);

impl<T: Copy + Default, C: Codec<T>, const N: usize> Codec<[T; N]> for Arr<C> {
    fn put(&self, out: &mut Vec<u8>, v: &[T; N]) {
        put_rows(&self.0, out, v);
    }
    fn get(&self, r: &mut Reader<'_>) -> Result<[T; N], WireError> {
        let mut a = [T::default(); N];
        for x in &mut a {
            *x = self.0.get(r)?;
        }
        Ok(a)
    }
    fn min_len(&self) -> usize {
        N * self.0.min_len()
    }
}

/// `A` stored as `B`: `to` and `from` convert (infallibly) between them.
pub struct Via<C, A, B>(pub C, pub fn(&A) -> B, pub fn(B) -> A);

impl<A, B, C: Codec<B>> Codec<A> for Via<C, A, B> {
    fn put(&self, out: &mut Vec<u8>, v: &A) {
        self.0.put(out, &(self.1)(v));
    }
    fn get(&self, r: &mut Reader<'_>) -> Result<A, WireError> {
        self.0.get(r).map(self.2)
    }
    fn min_len(&self) -> usize {
        self.0.min_len()
    }
}

/// A codec followed by a semantic check on each decoded value; the
/// check's message becomes [`WireError::Corrupt`].
pub struct Checked<C, T>(pub C, pub fn(&T) -> Result<(), &'static str>);

impl<T, C: Codec<T>> Codec<T> for Checked<C, T> {
    fn put(&self, out: &mut Vec<u8>, v: &T) {
        self.0.put(out, v);
    }
    fn get(&self, r: &mut Reader<'_>) -> Result<T, WireError> {
        let v = self.0.get(r)?;
        (self.1)(&v).map_err(WireError::Corrupt)?;
        Ok(v)
    }
    fn min_len(&self) -> usize {
        self.0.min_len()
    }
}

macro_rules! tuple_codec {
    ($(($t:ident, $c:ident, $i:tt)),+) => {
        impl<$($t, $c: Codec<$t>),+> Codec<($($t,)+)> for ($($c,)+) {
            fn put(&self, out: &mut Vec<u8>, v: &($($t,)+)) {
                $(self.$i.put(out, &v.$i);)+
            }
            fn get(&self, r: &mut Reader<'_>) -> Result<($($t,)+), WireError> {
                Ok(($(self.$i.get(r)?,)+))
            }
            fn min_len(&self) -> usize {
                0 $(+ self.$i.min_len())+
            }
        }
    };
}
tuple_codec!((A, CA, 0), (B, CB, 1));
tuple_codec!((A, CA, 0), (B, CB, 1), (D, CD, 2));

/// Writes every item of `items` (no length prefix).
pub fn put_rows<T, C: Codec<T>>(codec: &C, out: &mut Vec<u8>, items: &[T]) {
    for v in items {
        codec.put(out, v);
    }
}

/// Reads exactly `n` items (no length prefix); the preallocation is
/// capped by the bytes that remain.
pub fn get_rows<T, C: Codec<T>>(
    codec: &C,
    r: &mut Reader<'_>,
    n: usize,
) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(n.min(r.remaining() / codec.min_len().max(1)));
    for _ in 0..n {
        out.push(codec.get(r)?);
    }
    Ok(out)
}

/// Types the value of a declared field by the field itself: `v` must have
/// the type `field` projects to. Lets [`wire_struct!`](crate::wire_struct)
/// decode into locals whose types later fields' codecs can use.
#[doc(hidden)]
pub fn field<S, T>(_field: fn(&S) -> &T, v: T) -> T {
    v
}

/// [`Codec::min_len`] of a declared field's codec.
#[doc(hidden)]
pub fn field_min_len<S, T, C: Codec<T>>(_field: fn(&S) -> &T, codec: &C) -> usize {
    codec.min_len()
}

/// Declares a struct's byte layout once, as `field: codec` pairs in
/// encoding order, and generates a unit codec type implementing
/// [`Codec`] for it. Every field of the struct must be listed.
///
/// `field[n]: codec` stores a `Vec` of exactly `n` items without a
/// length prefix; `n` may name fields declared earlier (for example
/// `samples[estimates.len()]: Leb`).
///
/// ```
/// use bc_simcore::wire::{Bool, Codec, Leb, Reader, Seq};
///
/// #[derive(Debug, PartialEq)]
/// struct Row { id: u32, on: bool, keys: Vec<u64>, vals: Vec<u64> }
///
/// bc_simcore::wire_struct! {
///     RowCodec for Row { id: Leb, on: Bool, keys: Seq(Leb, Leb), vals[keys.len()]: Leb }
/// }
///
/// let row = Row { id: 300, on: true, keys: vec![1, 2], vals: vec![7, 8] };
/// let mut bytes = Vec::new();
/// RowCodec.put(&mut bytes, &row);
/// assert_eq!(bytes, [0xac, 0x02, 1, 2, 1, 2, 7, 8]);
/// assert_eq!(RowCodec.get(&mut Reader::new(&bytes)), Ok(row));
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis $codec:ident for $ty:ident {
            $($field:ident $([$n:expr])? : $c:expr),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy)]
        $vis struct $codec;

        impl $crate::wire::Codec<$ty> for $codec {
            fn put(&self, out: &mut ::std::vec::Vec<u8>, v: &$ty) {
                let $ty { $($field),+ } = v;
                $($crate::__wire_put!(out, $field, $c $(, $n)?);)+
            }
            fn get(
                &self,
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::std::result::Result<$ty, $crate::wire::WireError> {
                $(
                    let $field = $crate::wire::field(
                        |s: &$ty| &s.$field,
                        $crate::__wire_get!(r, $c $(, $n)?),
                    );
                )+
                Ok($ty { $($field),+ })
            }
            fn min_len(&self) -> usize {
                0 $(+ $crate::__wire_min_len!($ty, $field, $c $(, $n)?))+
            }
        }
    };
}

/// Declares a tagged enum's byte layout once: one `tag => Variant` arm
/// per variant, with `{ field: codec, .. }` or `(binding: codec, ..)`
/// for its fields, and the message for an unknown tag. Generates a unit
/// codec type implementing [`Codec`]; the tag is one raw byte.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis $codec:ident for $ty:ident, $msg:literal {
            $(
                $tag:literal => $var:ident
                $({ $($f:ident : $c:expr),* $(,)? })?
                $(( $($tf:ident : $tc:expr),* $(,)? ))?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy)]
        $vis struct $codec;

        impl $crate::wire::Codec<$ty> for $codec {
            fn put(&self, out: &mut ::std::vec::Vec<u8>, v: &$ty) {
                match v {
                    $(
                        $ty::$var $({ $($f),* })? $(( $($tf),* ))? => {
                            out.push($tag);
                            $($($crate::wire::Codec::put(&$c, out, $f);)*)?
                            $($($crate::wire::Codec::put(&$tc, out, $tf);)*)?
                        }
                    )+
                }
            }
            fn get(
                &self,
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::std::result::Result<$ty, $crate::wire::WireError> {
                Ok(match r.u8()? {
                    $(
                        $tag => $ty::$var
                            $({ $($f: $crate::wire::Codec::get(&$c, r)?),* })?
                            $(( $($crate::wire::Codec::get(&$tc, r)?),* ))?,
                    )+
                    _ => return Err($crate::wire::WireError::Corrupt($msg)),
                })
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($out:ident, $field:ident, $c:expr) => {
        $crate::wire::Codec::put(&$c, $out, $field)
    };
    ($out:ident, $field:ident, $c:expr, $n:expr) => {{
        debug_assert_eq!($field.len(), $n, "row count of {}", stringify!($field));
        $crate::wire::put_rows(&$c, $out, $field)
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get {
    ($r:ident, $c:expr) => {
        $crate::wire::Codec::get(&$c, $r)?
    };
    ($r:ident, $c:expr, $n:expr) => {
        $crate::wire::get_rows(&$c, $r, $n)?
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_min_len {
    ($ty:ident, $field:ident, $c:expr) => {
        $crate::wire::field_min_len(|s: &$ty| &s.$field, &$c)
    };
    // Row counts depend on decoded values; they add no lower bound.
    ($ty:ident, $field:ident, $c:expr, $n:expr) => {
        0
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leb(bytes: &[u8]) -> Result<u64, WireError> {
        Leb.get(&mut Reader::new(bytes))
    }

    #[test]
    fn leb_round_trips_at_every_width() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, u64::MAX >> shift] {
                let mut out = Vec::new();
                Leb.put(&mut out, &v);
                let mut r = Reader::new(&out);
                assert_eq!(Leb.get(&mut r), Ok(v));
                assert_eq!(r.remaining(), 0);
            }
        }
    }

    #[test]
    fn leb_rejects_overflow_non_minimal_and_truncation() {
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(leb(&max), Ok(u64::MAX));
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert_eq!(leb(&over), Err(WireError::Corrupt("varint overflow")));
        let mut long = vec![0x80; 10];
        long.push(0x00);
        assert_eq!(leb(&long), Err(WireError::Corrupt("varint overflow")));
        assert_eq!(leb(&[0x00]), Ok(0));
        assert_eq!(
            leb(&[0x80, 0x00]),
            Err(WireError::Corrupt("non-minimal varint"))
        );
        assert_eq!(
            leb(&[0xa5, 0x00]),
            Err(WireError::Corrupt("non-minimal varint"))
        );
        assert_eq!(leb(&[0x80]), Err(WireError::Truncated));
        assert_eq!(leb(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn narrowing_is_checked() {
        let mut big = Vec::new();
        Leb.put(&mut big, &(u64::from(u32::MAX) + 1));
        let r: Result<u32, _> = Leb.get(&mut Reader::new(&big));
        assert_eq!(r, Err(WireError::Corrupt("u32 out of range")));
        let r = Narrow("cap out of range").get(&mut Reader::new(&big));
        assert_eq!(r, Err(WireError::Corrupt("cap out of range")));
    }

    #[test]
    fn fixed_width_is_little_endian() {
        let mut out = Vec::new();
        Le.put(&mut out, &0x0102_0304u32);
        Le.put(&mut out, &0x0506u64);
        Le.put(&mut out, &7u128);
        assert_eq!(&out[..4], &[4, 3, 2, 1]);
        assert_eq!(&out[4..12], &[6, 5, 0, 0, 0, 0, 0, 0]);
        assert_eq!(out.len(), 28);
        let mut r = Reader::new(&out);
        let (a, b, c): (u32, u64, u128) = r.get(&(Le, Le, Le)).unwrap();
        assert_eq!((a, b, c), (0x0102_0304, 0x0506, 7));
        let short: Result<u64, _> = Le.get(&mut Reader::new(&out[..7]));
        assert_eq!(short, Err(WireError::Truncated));
    }

    #[test]
    fn tags_and_lengths_are_checked() {
        let o = Opt(Leb, "field tag out of range");
        let r: Result<Option<u64>, _> = o.get(&mut Reader::new(&[2]));
        assert_eq!(r, Err(WireError::Corrupt("field tag out of range")));
        assert_eq!(
            Bool.get(&mut Reader::new(&[2])),
            Err(WireError::Corrupt("bool out of range"))
        );
        // A length far beyond the input fails before allocating.
        let mut huge = Vec::new();
        Leb.put(&mut huge, &(u64::MAX >> 1));
        let r: Result<Vec<u64>, _> = Seq(Leb, Leb).get(&mut Reader::new(&huge));
        assert_eq!(r, Err(WireError::Truncated));
        // A length that fits bytes but not 16-byte records.
        let r: Result<Vec<u128>, _> = Seq(Leb, Le).get(&mut Reader::new(&[2, 0, 0, 0, 0]));
        assert_eq!(r, Err(WireError::Truncated));
        let r = Utf8(Leb).get(&mut Reader::new(&[2, 0xc3, 0x28]));
        assert_eq!(r, Err(WireError::Corrupt("string not UTF-8")));
        let zn = ZeroNone(Leb);
        let r: Result<Option<u64>, _> = zn.get(&mut Reader::new(&[]));
        assert_eq!(r, Err(WireError::Truncated));
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot,
        Line(u64),
        Box {
            w: u32,
            h: u32,
            name: Option<String>,
        },
    }

    crate::wire_enum! {
        ShapeCodec for Shape, "shape tag out of range" {
            0 => Dot,
            1 => Line(len: Leb),
            2 => Box { w: Leb, h: Leb, name: opt(Utf8(Leb)) },
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Scene {
        id: u64,
        shapes: Vec<Shape>,
        weights: Vec<u32>,
        pinned: Option<Shape>,
        seal: u128,
    }

    crate::wire_struct! {
        SceneCodec for Scene {
            id: Leb,
            shapes: Seq(Leb, ShapeCodec),
            weights[shapes.len()]: Leb,
            // Tag 0 (`Dot`) doubles as `None`; pinned shapes are never dots.
            pinned: ZeroNone(Checked(ShapeCodec, upright)),
            seal: Le,
        }
    }

    fn upright(s: &Shape) -> Result<(), &'static str> {
        match s {
            Shape::Box { w, h, .. } if w > h => Err("box wider than tall"),
            _ => Ok(()),
        }
    }

    fn shape((kind, n, w, h): (u8, u64, u32, u32)) -> Shape {
        const NAMES: [&str; 3] = ["", "pad", "\u{e9}t\u{e9}"];
        match kind % 4 {
            0 => Shape::Dot,
            1 => Shape::Line(n),
            k => Shape::Box {
                w,
                h,
                name: (k == 3).then(|| NAMES[n as usize % 3].to_string()),
            },
        }
    }

    fn scene() -> impl Strategy<Value = Scene> {
        let row = (
            (any::<u8>(), any::<u64>(), any::<u32>(), any::<u32>()),
            any::<u32>(),
        );
        (
            any::<u64>(),
            proptest::collection::vec(row, 0..6),
            any::<u64>(),
            any::<u128>(),
        )
            .prop_map(|(id, rows, pin, seal)| Scene {
                id,
                shapes: rows.iter().map(|(s, _)| shape(*s)).collect(),
                weights: rows.iter().map(|(_, w)| *w).collect(),
                pinned: (pin % 3 != 0).then_some(Shape::Line(pin)),
                seal,
            })
    }

    proptest! {
        #[test]
        fn declared_layouts_round_trip_canonically(s in scene()) {
            let mut bytes = Vec::new();
            SceneCodec.put(&mut bytes, &s);
            let mut r = Reader::new(&bytes);
            prop_assert_eq!(SceneCodec.get(&mut r), Ok(s));
            prop_assert_eq!(r.remaining(), 0);
            // Every strict prefix is an error, never a panic.
            for cut in 0..bytes.len() {
                prop_assert!(SceneCodec.get(&mut Reader::new(&bytes[..cut])).is_err());
            }
        }

        #[test]
        fn arbitrary_bytes_decode_totally_and_canonically(
            bytes in proptest::collection::vec(any::<u8>(), 0..64)
        ) {
            let mut r = Reader::new(&bytes);
            if let Ok(s) = SceneCodec.get(&mut r) {
                let mut again = Vec::new();
                SceneCodec.put(&mut again, &s);
                prop_assert_eq!(&again[..], &bytes[..r.pos()]);
            }
        }
    }

    #[test]
    fn declared_enum_rejects_unknown_tags_and_checks_run() {
        assert_eq!(
            ShapeCodec.get(&mut Reader::new(&[3])),
            Err(WireError::Corrupt("shape tag out of range"))
        );
        // id 0, no shapes, pinned `Line(5)`, seal 0: decodes.
        let mut bytes = vec![0, 0, 1, 5];
        bytes.extend([0u8; 16]);
        assert!(SceneCodec.get(&mut Reader::new(&bytes)).is_ok());
        // Pinned `Box { w: 2, h: 1 }` fails its check after decoding.
        bytes.splice(2..4, [2, 2, 1, 0]);
        assert_eq!(
            SceneCodec.get(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt("box wider than tall"))
        );
        assert_eq!(SceneCodec.min_len(), 1 + 1 + 1 + 16);
        let mut out = Vec::new();
        ShapeCodec.put(
            &mut out,
            &Shape::Box {
                w: 1,
                h: 300,
                name: Some("é".into()),
            },
        );
        assert_eq!(out, [2, 1, 0xac, 0x02, 1, 2, 0xc3, 0xa9]);
    }
}
