//! The machinery behind the config table in [`crate::config`]: what a key
//! declaration consists of ([`Kind`], [`Bound`], [`Row`]), how each kind
//! reads from and renders to the document model ([`Field`]), and the
//! `sections!` macro that turns declarations into typed structs. Every
//! failure is a [`CliError::Config`] at `section.key`, never a panic.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::error::{CliError, Result};
use nf_value::{join, Value};

/// The shape of value a key takes: the closed set the reader, the writer
/// and the `DESIGN.md` §6 listing know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// String.
    Str,
    /// Non-negative integer (a `usize` or `u64` field).
    Int,
    /// Finite number (integers coerce).
    F64,
    /// Boolean.
    Bool,
    /// Array of non-negative integers.
    IntList,
    /// Array of strings.
    StrList,
    /// A string parsed by the field type's `FromStr`; carries its grammar.
    Enum(&'static str),
    /// A `[section]`.
    Table,
}

impl Kind {
    /// What a value of this kind is, for error messages and the listing.
    pub fn expected(self) -> &'static str {
        match self {
            Kind::Str | Kind::Enum(_) => "a string",
            Kind::Int => "a non-negative integer",
            Kind::F64 => "a finite number",
            Kind::Bool => "a boolean",
            Kind::IntList => "an array of non-negative integers",
            Kind::StrList => "an array of strings",
            Kind::Table => "a table",
        }
    }
}

/// The values a key admits beyond its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// `> 0`.
    Positive,
    /// Within `[0, 1]`.
    Unit,
    /// At most this.
    AtMost(usize),
    /// A list with at least one entry.
    NonEmpty,
    /// A non-empty list with every entry `> 0`.
    AllPositive,
    /// A list whose entries do not all vanish.
    NotAllZero,
    /// Non-empty and free of `/`, `\` and `.`: usable as a directory name.
    DirName,
}

impl Bound {
    /// The bound in words, completing "must be …".
    pub fn describe(self) -> String {
        match self {
            Bound::Positive => "> 0".into(),
            Bound::Unit => "within [0, 1]".into(),
            Bound::AtMost(max) => format!("≤ {max}"),
            Bound::NonEmpty => "non-empty".into(),
            Bound::AllPositive => "non-empty with every entry > 0".into(),
            Bound::NotAllZero => "not all zero".into(),
            Bound::DirName => "non-empty and free of path separators and dots".into(),
        }
    }

    /// Whether a document value (already of the key's kind) is in bound.
    fn admits(self, v: &Value) -> bool {
        let items = v.as_array().unwrap_or_default();
        let positive = |v: &Value| v.as_float().is_some_and(|f| f > 0.0);
        match self {
            Bound::Positive => positive(v),
            Bound::Unit => v.as_float().is_some_and(|f| (0.0..=1.0).contains(&f)),
            Bound::AtMost(max) => v.as_int().is_some_and(|i| i <= int(max)),
            Bound::NonEmpty => !items.is_empty(),
            Bound::AllPositive => !items.is_empty() && items.iter().all(positive),
            Bound::NotAllZero => items.iter().any(|item| item.as_int() != Some(0)),
            Bound::DirName => v
                .as_str()
                .is_some_and(|s| !s.is_empty() && !s.contains(['/', '\\', '.'])),
        }
    }
}

/// One declared key or section, as data: what `DESIGN.md` §6 and the
/// table-driven tests iterate over.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `section.key`, or the bare section name for a section's own row.
    pub path: String,
    /// Value shape.
    pub kind: Kind,
    /// What omitting the key means: `None` is an error (required),
    /// [`Value::Null`] leaves it unset, anything else is its default.
    pub default: Option<Value>,
    /// Admitted values, when the kind alone does not say.
    pub bound: Option<Bound>,
    /// The declaration's doc comment, on one line.
    pub doc: String,
}

/// How a declared type reads from and renders to the document model:
/// implemented once per [`Kind`], and by `sections!` for every section.
pub trait Field: Sized {
    /// The value shape this type reads.
    const KIND: Kind;

    /// Reads the value found at `path`.
    fn read(v: &Value, path: &str) -> Result<Self>;

    /// Renders the value; [`Value::Null`] is an unset optional key, which
    /// section writers leave out.
    fn write(&self) -> Value;

    /// Appends the rows declared beneath `path` (sections only).
    fn rows(_path: &str, _out: &mut Vec<Row>) {}
}

pub(crate) fn wrong_type(path: &str, kind: Kind, found: &Value) -> CliError {
    let message = format!("must be {}, found {}", kind.expected(), found.type_name());
    CliError::config(path, message)
}

/// Integers render through `i64`, the document model's integer. Every one a
/// config can *load* fits; a hand-built struct beyond it saturates, so its
/// snapshot re-parses to a different config, never to a wrapped negative.
fn int(i: impl TryInto<i64>) -> i64 {
    i.try_into().unwrap_or(i64::MAX)
}

macro_rules! scalar {
    ($($ty:ty: $kind:ident, |$v:ident| $read:expr, |$s:ident| $write:expr;)+) => {$(
        impl Field for $ty {
            const KIND: Kind = Kind::$kind;

            fn read($v: &Value, path: &str) -> Result<Self> {
                $read.ok_or_else(|| wrong_type(path, Self::KIND, $v))
            }

            fn write(&self) -> Value {
                let $s = self;
                $write
            }
        }
    )+};
}

scalar! {
    String: Str, |v| v.as_str().map(str::to_string), |s| Value::Str(s.clone());
    bool: Bool, |v| v.as_bool(), |s| Value::Bool(*s);
    f64: F64, |v| v.as_float().filter(|f| f.is_finite()), |s| Value::Float(*s);
    usize: Int, |v| v.as_int().and_then(|i| i.try_into().ok()), |s| Value::Int(int(*s));
    u64: Int, |v| v.as_int().and_then(|i| i.try_into().ok()), |s| Value::Int(int(*s));
}

/// Implements [`Field`] for types that read from a string through
/// `FromStr<Err = String>` and render through `name()`, given the grammar.
macro_rules! string_enum {
    ($($ty:ty = $grammar:literal;)+) => {$(
        impl Field for $ty {
            const KIND: Kind = Kind::Enum($grammar);

            fn read(v: &Value, path: &str) -> Result<Self> {
                let s = v.as_str().ok_or_else(|| wrong_type(path, Self::KIND, v))?;
                s.parse().map_err(|e: String| CliError::config(path, e))
            }

            fn write(&self) -> Value {
                Value::Str(self.name().to_string())
            }
        }
    )+};
}
pub(crate) use string_enum;

impl<T: Field> Field for Vec<T> {
    const KIND: Kind = match T::KIND {
        Kind::Str => Kind::StrList,
        _ => Kind::IntList,
    };

    fn read(v: &Value, path: &str) -> Result<Self> {
        let wrong = || wrong_type(path, Self::KIND, v);
        let items = v.as_array().ok_or_else(wrong)?;
        let read = |item| T::read(item, path).map_err(|_| wrong());
        items.iter().map(read).collect()
    }

    fn write(&self) -> Value {
        Value::Array(self.iter().map(T::write).collect())
    }
}

impl Field for [usize; 3] {
    const KIND: Kind = Kind::IntList;

    fn read(v: &Value, path: &str) -> Result<Self> {
        let wrong = |_| CliError::config(path, "must have exactly three entries");
        Self::try_from(Vec::read(v, path)?).map_err(wrong)
    }

    fn write(&self) -> Value {
        self.to_vec().write()
    }
}

impl<T: Field> Field for Option<T> {
    const KIND: Kind = T::KIND;

    fn read(v: &Value, path: &str) -> Result<Self> {
        T::read(v, path).map(Some)
    }

    fn write(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::write)
    }

    fn rows(path: &str, out: &mut Vec<Row>) {
        T::rows(path, out)
    }
}

/// Reads one declared key of the table at `path`: typed and in bound, or,
/// when the document omits it, `absent` (`None`: the key is required).
/// `bound` holds at most one [`Bound`].
pub(crate) fn read_key<T: Field>(
    table: &Value,
    (path, key): (&str, &str),
    absent: Option<T>,
    bound: &[Bound],
) -> Result<T> {
    let path = join(path, key);
    let Some(v) = table.get(key) else {
        return absent.ok_or_else(|| CliError::config(path, "missing, and required"));
    };
    let typed = T::read(v, &path)?;
    let broken = bound.iter().find(|bound| !bound.admits(v));
    broken.map_or(Ok(typed), |b| {
        Err(CliError::config(path, format!("must be {}", b.describe())))
    })
}

/// Appends the [`Row`] of one declared key, then the rows beneath it.
pub(crate) fn row<T: Field>(
    (path, key): (&str, &str),
    absent: Option<T>,
    bound: &[Bound],
    doc: &str,
    out: &mut Vec<Row>,
) {
    let path = join(path, key);
    out.push(Row {
        path: path.clone(),
        kind: T::KIND,
        default: absent.map(|value| value.write()),
        bound: bound.first().copied(),
        doc: doc.trim().to_string(),
    });
    T::rows(&path, out);
}

/// Rejects anything in the table at `path` (the document root when empty)
/// that the declaration does not name.
pub(crate) fn check_keys(table: &Value, path: &str, keys: &[&str]) -> Result<()> {
    let wrong = || wrong_type(path, Kind::Table, table);
    let entries = table.entries().ok_or_else(wrong)?;
    match entries.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        None => Ok(()),
        Some((k, _)) => {
            let what = if path.is_empty() { "section" } else { "key" };
            let message = format!("unknown {what}; the known ones are: {}", keys.join(", "));
            Err(CliError::config(join(path, k), message))
        }
    }
}

/// Declares the schema's sections: `pub key: Type [= default] [, bound];`
/// per key under its doc comment. A key without a default is required; an
/// optional one is an `Option` defaulting to `None`. `: Default` after a
/// section's name (all its keys defaulted) derives `Default` from them.
macro_rules! sections {
    ($(
        $(#[doc = $section_doc:literal])+
        pub struct $Section:ident $(: $Default:ident)? {
            $(
                $(#[doc = $doc:literal])+
                pub $field:ident: $ty:ty $(= $default:expr)? $(, $bound:expr)?;
            )+
        }
    )+) => {$(
        $(#[doc = $section_doc])+
        #[derive(Debug, Clone, PartialEq)]
        pub struct $Section {
            $($(#[doc = $doc])+ pub $field: $ty,)+
        }

        impl $crate::schema::Field for $Section {
            const KIND: $crate::schema::Kind = $crate::schema::Kind::Table;

            fn read(v: &::nf_value::Value, path: &str) -> $crate::error::Result<Self> {
                $crate::schema::check_keys(v, path, &[$(stringify!($field)),+])?;
                Ok($Section {
                    $($field: $crate::schema::read_key(
                        v,
                        (path, stringify!($field)),
                        [$($default)?].into_iter().next(),
                        &[$($bound)?],
                    )?,)+
                })
            }

            fn write(&self) -> ::nf_value::Value {
                let mut table = ::nf_value::Table::new();
                $(match self.$field.write() {
                    ::nf_value::Value::Null => {}
                    value => table.insert(stringify!($field), value),
                })+
                table.build()
            }

            fn rows(path: &str, out: &mut Vec<$crate::schema::Row>) {
                $($crate::schema::row::<$ty>(
                    (path, stringify!($field)),
                    [$($default)?].into_iter().next(),
                    &[$($bound)?],
                    concat!($($doc),+),
                    out,
                );)+
            }
        }

        $crate::schema::sections!(@default ($($Default)?) $Section { $($field ($($default)?))+ });
    )+};
    (@default () $($rest:tt)*) => {};
    (@default (Default) $Section:ident { $($field:ident ($default:expr))+ }) => {
        impl Default for $Section {
            fn default() -> Self {
                $Section { $($field: $default,)+ }
            }
        }
    };
}
pub(crate) use sections;
