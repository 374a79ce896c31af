//! The `codec!` macro: `ToJson` and `FromJson` from one field or variant
//! list per type.

/// Generate `ToJson` and `FromJson` for structs and enums from one list of
/// their fields or variants, in the crate's externally-tagged encoding.
///
/// ```
/// use semcc_json::{codec, from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Empty,
///     Dot(i64),
///     Line(i64, i64),
///     Box { w: i64, h: i64 },
///     Named { name: String },
/// }
/// #[derive(Debug, PartialEq)]
/// struct Scene {
///     shapes: Vec<Shape>,
///     title: Option<String>,
///     tags: Vec<String>,
/// }
/// codec! {
///     enum Shape { Empty, Dot(x), Line(a, b), Box { w, h }, #[bare] Named { name } }
///     struct Scene { shapes, #[opt] title, #[default] tags }
/// }
///
/// let s = Scene {
///     shapes: vec![
///         Shape::Empty,
///         Shape::Dot(1),
///         Shape::Line(2, 3),
///         Shape::Box { w: 4, h: 5 },
///         Shape::Named { name: "n".into() },
///     ],
///     title: None,
///     tags: vec![],
/// };
/// let text = to_string(&s);
/// assert_eq!(
///     text,
///     r#"{"shapes":["Empty",{"Dot":1},{"Line":[2,3]},{"Box":{"w":4,"h":5}},{"Named":"n"}],"title":null,"tags":[]}"#
/// );
/// assert_eq!(from_str::<Scene>(&text).unwrap(), s);
/// assert_eq!(from_str::<Scene>(r#"{"shapes":[]}"#).unwrap().title, None);
/// assert!(from_str::<Shape>(r#"{"Empty":null}"#).is_err());
/// ```
///
/// **Structs** are objects with the fields in declaration order; decoding
/// ignores unknown keys and fails with ``missing field `f` `` on an absent
/// one. A field marked `#[opt]` (an `Option`) decodes an absent key as
/// `None`; one marked `#[default]` decodes an absent or `null` key as the
/// type's `Default`. Both still encode, as `null` or the value.
///
/// **Enum variants**, one form each:
///
/// | declared as | encodes as |
/// |---|---|
/// | `Unit` | `"Unit"`, and decodes only from that bare string |
/// | `One(x)` | `{"One": x}` |
/// | `Two(a, b)`, `Three(a, b, c)` | `{"Two": [a, b]}` |
/// | `Rec { f, g }` | `{"Rec": {"f": f, "g": g}}` |
/// | `#[bare] Rec { f }` | `{"Rec": f}` |
///
/// The names in a tuple variant only bind its fields. An unknown tag is
/// ``unknown T variant `Tag` ``; a payload on a unit variant, or none on a
/// data variant, is an error too. Several declarations may share one
/// invocation.
#[macro_export]
macro_rules! codec {
    () => {};

    (struct $T:ident { $($(#[$attr:ident])? $f:ident),+ $(,)? } $($rest:tt)*) => {
        impl $crate::ToJson for $T {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj([$((stringify!($f), $crate::ToJson::to_json(&self.$f))),+])
            }
        }
        impl $crate::FromJson for $T {
            fn from_json(j: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok($T { $($f: $crate::codec!(@field j $f $($attr)?)),+ })
            }
        }
        $crate::codec!($($rest)*);
    };

    (enum $T:ident {
        $($(#[$attr:ident])? $V:ident $(($($tf:ident),+))? $({ $($sf:ident),+ })?),+ $(,)?
    } $($rest:tt)*) => {
        impl $crate::ToJson for $T {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $($T::$V $(($($tf),+))? $({ $($sf),+ })? => $crate::codec!(
                        @encode $(#[$attr])? $V $(($($tf),+))? $({ $($sf),+ })?
                    ),)+
                }
            }
        }
        impl $crate::FromJson for $T {
            fn from_json(j: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let (tag, p) = j.as_tagged()?;
                let payload = if matches!(j, $crate::Json::Str(_)) { None } else { Some(p) };
                $(if tag == stringify!($V) {
                    return $crate::codec!(
                        @decode $T payload $(#[$attr])? $V $(($($tf),+))? $({ $($sf),+ })?
                    );
                })+
                Err($crate::JsonError::new(format!(
                    "unknown {} variant `{tag}`",
                    stringify!($T)
                )))
            }
        }
        $crate::codec!($($rest)*);
    };

    (@field $j:ident $f:ident) => { $j.field(stringify!($f))? };
    (@field $j:ident $f:ident opt) => { $j.opt_field(stringify!($f))? };
    (@field $j:ident $f:ident default) => { $j.opt_field(stringify!($f))?.unwrap_or_default() };

    (@encode $V:ident) => { $crate::Json::str(stringify!($V)) };
    (@encode $V:ident ($x:ident)) => {
        $crate::Json::tagged(stringify!($V), $crate::ToJson::to_json($x))
    };
    (@encode $V:ident ($($x:ident),+)) => {
        $crate::Json::tagged(
            stringify!($V),
            $crate::Json::Arr(vec![$($crate::ToJson::to_json($x)),+]),
        )
    };
    (@encode #[bare] $V:ident { $x:ident }) => {
        $crate::Json::tagged(stringify!($V), $crate::ToJson::to_json($x))
    };
    (@encode $V:ident { $($f:ident),+ }) => {
        $crate::Json::tagged(
            stringify!($V),
            $crate::Json::obj([$((stringify!($f), $crate::ToJson::to_json($f))),+]),
        )
    };

    (@decode $T:ident $p:ident $V:ident) => {
        match $p {
            None => Ok($T::$V),
            Some(_) => Err($crate::JsonError::new(concat!(
                stringify!($T), " variant `", stringify!($V), "` takes no payload"
            ))),
        }
    };
    (@decode $T:ident $p:ident $V:ident ($x:ident)) => {
        Ok($T::$V($crate::FromJson::from_json($crate::codec!(@payload $T $p $V))?))
    };
    (@decode $T:ident $p:ident $V:ident ($($x:ident),+)) => {{
        let ($($x),+) = $crate::FromJson::from_json($crate::codec!(@payload $T $p $V))?;
        Ok($T::$V($($x),+))
    }};
    (@decode $T:ident $p:ident #[bare] $V:ident { $x:ident }) => {
        Ok($T::$V { $x: $crate::FromJson::from_json($crate::codec!(@payload $T $p $V))? })
    };
    (@decode $T:ident $p:ident $V:ident { $($f:ident),+ }) => {{
        let p = $crate::codec!(@payload $T $p $V);
        Ok($T::$V { $($f: p.field(stringify!($f))?),+ })
    }};

    (@payload $T:ident $p:ident $V:ident) => {
        $p.ok_or_else(|| {
            $crate::JsonError::new(concat!(
                stringify!($T), " variant `", stringify!($V), "` needs a payload"
            ))
        })?
    };
}
