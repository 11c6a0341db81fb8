//! The wire protocol between IP users and providers, declared once.
//!
//! Java RMI's `rmic` generates a client stub and a server skeleton from
//! one remote interface; [`remote_interfaces!`] does the same from one
//! row per method — selector, typed arguments and result, purity, and
//! what each direction of the payload may carry. From that row come:
//!
//! * the selector constant (`component::FUNCTIONAL_EVAL`, whose text is
//!   the method's name);
//! * a typed client method on the interface's `Stub`, plus a `Metered`
//!   twin that also reports whether the client's memo answered the call;
//! * a method of the interface's `Provider` trait, and the `skeleton`
//!   that decodes the arguments, calls it and encodes the result;
//! * [`cacheable_method`], true for exactly the rows declared `pure`, and
//!   (for tests) the privacy manifest the wire-privacy audit reads.
//!
//! Every argument and result shape is a [`Wire`] type, so each shape is
//! encoded and decoded in one impl. Client→server payloads obey the
//! port-data-only marshalling policy.

use vcad_faults::{DetectionTable, SymbolicFault};
use vcad_logic::LogicVec;
use vcad_rmi::{ObjectId, RmiError, Value, Wire};

use crate::client::OfferingInfo;
use crate::negotiate::{NegotiationOutcome, NegotiationRequest};

/// Declares remote interfaces: per interface a module with the selectors,
/// `Stub`, `Metered`, `Provider` and `skeleton`; for all of them together
/// `cacheable_method` and (under `cfg(test)`) `MANIFEST`.
///
/// A row reads `SELECTOR = fn name(arg: Type, ..) -> Result; purity,
/// Request => Response;` where purity is `pure` (a function of target and
/// arguments alone, so a client may memoize it) or `impure`, and the two
/// payload classes name [`PayloadKind`](crate::privacy::PayloadKind)s.
macro_rules! remote_interfaces {
    ($(
        $(#[$interface_attr:meta])*
        $interface:ident {$(
            $(#[$method_attr:meta])*
            $selector:ident = fn $method:ident($($arg:ident: $ty:ty),*) -> $ret:ty;
                $purity:ident, $request:ident => $response:ident;
        )*}
    )*) => {
        $(
            $(#[$interface_attr])*
            pub(crate) mod $interface {
                #[allow(unused_imports)]
                use super::*;

                $(
                    $(#[$method_attr])*
                    pub(crate) const $selector: &str = stringify!($method);
                )*

                /// The client stub: one typed method per remote method.
                #[derive(Clone, Debug)]
                pub(crate) struct Stub(pub(crate) vcad_rmi::RemoteRef);

                /// The stub's methods, each also reporting whether the
                /// client's memo answered it (so no fee is due).
                pub(crate) struct Metered<'a>(&'a vcad_rmi::RemoteRef);

                // A declared method need not have a caller on each side.
                #[allow(dead_code)]
                impl Stub {
                    pub(crate) fn metered(&self) -> Metered<'_> {
                        Metered(&self.0)
                    }
                    $(
                        pub(crate) fn $method(&self, $($arg: $ty),*) -> Result<$ret, vcad_rmi::RmiError> {
                            Ok(self.metered().$method($($arg),*)?.0)
                        }
                    )*
                }

                #[allow(dead_code)]
                impl Metered<'_> {
                    $(
                        pub(crate) fn $method(
                            &self,
                            $($arg: $ty),*
                        ) -> Result<($ret, bool), vcad_rmi::RmiError> {
                            let args = vec![$(vcad_rmi::Wire::into_value($arg)),*];
                            let (value, cached) = self.0.invoke_with_meta($selector, args)?;
                            Ok((<$ret as vcad_rmi::Wire>::from_value(value)?, cached))
                        }
                    )*
                }

                /// What an exported object implements to serve this
                /// interface; `ctx` is the call's context (tenant, own
                /// registry).
                pub(crate) trait Provider {
                    $(
                        $(#[$method_attr])*
                        fn $method(
                            &self,
                            ctx: &vcad_rmi::ServerCtx,
                            $($arg: $ty),*
                        ) -> Result<$ret, vcad_rmi::RmiError>;
                    )*
                }

                /// The skeleton: decodes `args` into the method's types (a
                /// missing or misshapen argument is `bad arguments`; extra
                /// ones are ignored), calls `provider` and encodes its
                /// result. `object` names the target in an unknown-method
                /// error.
                #[allow(unused_mut, unused_variables)]
                pub(crate) fn skeleton(
                    provider: &impl Provider,
                    object: &str,
                    method: &str,
                    args: &[vcad_rmi::Value],
                    ctx: &vcad_rmi::ServerCtx,
                ) -> Result<vcad_rmi::Value, vcad_rmi::RmiError> {
                    match method {
                        $(
                            $selector => {
                                let mut args = args.iter();
                                $(let $arg = $crate::protocol::argument(&mut args, $selector)?;)*
                                let result = Provider::$method(provider, ctx, $($arg),*)?;
                                Ok(vcad_rmi::Wire::into_value(result))
                            }
                        )*
                        _ => Err(vcad_rmi::RmiError::unknown_method(object, method)),
                    }
                }
            }
        )*

        /// True for the methods declared `pure`: their result is a
        /// function of target object and arguments alone, so a client may
        /// serve a repeat call from its memo. Any other name is impure,
        /// so protocol extensions stay correct by default.
        #[must_use]
        pub(crate) fn cacheable_method(method: &str) -> bool {
            match method {
                $($($interface::$selector => $crate::protocol::remote_interfaces!(@pure $purity),)*)*
                _ => false,
            }
        }

        /// The privacy manifest: each method's declared payload classes
        /// and purity, in declaration order.
        #[cfg(test)]
        pub(crate) const MANIFEST: &[$crate::privacy::MethodManifest] = &[$($(
            $crate::privacy::MethodManifest {
                method: $interface::$selector,
                request: $crate::privacy::PayloadKind::$request,
                response: $crate::privacy::PayloadKind::$response,
                pure: $crate::protocol::remote_interfaces!(@pure $purity),
            },
        )*)*];
    };
    (@pure pure) => { true };
    (@pure impure) => { false };
}
pub(crate) use remote_interfaces;

/// The next argument as a `T`; a missing or misshapen one is the
/// caller's bad request.
pub(crate) fn argument<'a, T: Wire>(
    args: &mut impl Iterator<Item = &'a Value>,
    selector: &str,
) -> Result<T, RmiError> {
    args.next()
        .and_then(|arg| T::from_value(arg.clone()).ok())
        .ok_or_else(|| RmiError::bad_args(selector))
}

remote_interfaces! {
    /// Catalog (root object) methods.
    catalog {
        /// `list() -> List<Map>` — the published offerings.
        LIST = fn list() -> Vec<OfferingInfo>; pure, Empty => Scalar;
        /// `instantiate(name: Str, width: I64) -> ObjectRef` — create a
        /// component instance, 1 to 32 bits wide.
        INSTANTIATE = fn instantiate(name: String, width: i64) -> ObjectId;
            impure, Scalar => ObjectRef;
        /// `bill() -> F64` — total fees charged so far, in cents.
        BILL = fn bill() -> f64; impure, Empty => Scalar;
        /// `negotiate(name: Str, requests: List<[Str, F64, F64]>) ->
        /// List<Map>` — per-parameter estimator offers within the user's
        /// fee/accuracy constraints.
        NEGOTIATE = fn negotiate(name: String, requests: Vec<NegotiationRequest>)
            -> Vec<NegotiationOutcome>; impure, Scalar => Scalar;
    }

    /// Component-instance methods.
    component {
        /// `describe() -> Map` — name, width, public part.
        DESCRIBE = fn describe() -> Description; pure, Empty => Scalar;
        /// `area() -> F64` — provider-computed equivalent-gate area.
        AREA = fn area() -> f64; pure, Empty => Scalar;
        /// `delay() -> F64` — provider-computed critical path, picoseconds.
        DELAY = fn delay() -> f64; pure, Empty => Scalar;
        /// `power_constant() -> F64` — datasheet mean power, watts.
        POWER_CONSTANT = fn power_constant() -> f64; pure, Empty => Scalar;
        /// `power_regression() -> List[F64, F64]` — downloadable
        /// (intercept, slope) coefficients.
        POWER_REGRESSION = fn power_regression() -> (f64, f64); pure, Empty => Scalar;
        /// `power_toggle(patterns: List<Vec>) -> F64` — gate-level average
        /// power over the buffered input patterns, watts. Charged per
        /// transition.
        POWER_TOGGLE = fn power_toggle(patterns: Vec<LogicVec>) -> f64;
            pure, PortLocal => Scalar;
        /// `power_peak(patterns: List<Vec>) -> F64` — worst
        /// single-transition power over the buffered input patterns,
        /// watts. Charged per transition.
        POWER_PEAK = fn power_peak(patterns: Vec<LogicVec>) -> f64; pure, PortLocal => Scalar;
        /// `functional_eval(inputs: Vec) -> Vec` — remote functional
        /// evaluation of one input configuration (MR scenario).
        FUNCTIONAL_EVAL = fn functional_eval(inputs: LogicVec) -> LogicVec;
            pure, PortLocal => PortLocal;
        /// `fault_list() -> List<Str>` — the symbolic fault list.
        FAULT_LIST = fn fault_list() -> Vec<SymbolicFault>; pure, Empty => Scalar;
        /// `detection_table(inputs: Vec) -> Map` — the per-pattern
        /// detection table.
        DETECTION_TABLE = fn detection_table(inputs: LogicVec) -> DetectionTable;
            pure, PortLocal => PortLocal;
        /// `release() -> Null` — withdraw this component instance from
        /// the provider's registry.
        RELEASE = fn release() -> (); impure, Empty => Empty;
    }
}

/// A component instance as `describe` reports it: the public part the
/// client instantiates locally, never the private one.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Description {
    pub(crate) name: String,
    pub(crate) width: i64,
    /// Which registered behaviour the client runs as the functional
    /// model.
    pub(crate) public_behavior: String,
}

impl Wire for Description {
    fn into_value(self) -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str(self.name)),
            ("width".into(), Value::I64(self.width)),
            ("public_behavior".into(), Value::Str(self.public_behavior)),
        ])
    }

    fn from_value(mut value: Value) -> Result<Description, RmiError> {
        Ok(Description {
            name: String::from_value(value.take("name"))?,
            width: i64::from_value(value.take("width"))?,
            public_behavior: String::from_value(value.take("public_behavior"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::{protocol_manifest, PayloadKind};

    #[test]
    fn pattern_round_trip() {
        let pats: Vec<LogicVec> = vec!["1010".parse().unwrap(), "01XZ".parse().unwrap()];
        let v = pats.clone().into_value();
        assert_eq!(Vec::<LogicVec>::from_value(v).unwrap(), pats);
    }

    #[test]
    fn decode_rejects_non_lists() {
        assert!(Vec::<LogicVec>::from_value(Value::I64(3)).is_err());
        assert!(Vec::<LogicVec>::from_value(Value::List(vec![Value::Null])).is_err());
    }

    /// The declaration's selectors, spelled out: a method added, renamed
    /// or dropped must be acknowledged here.
    #[test]
    fn manifest_covers_every_selector() {
        let selectors = [
            "list",
            "instantiate",
            "bill",
            "negotiate",
            "describe",
            "area",
            "delay",
            "power_constant",
            "power_regression",
            "power_toggle",
            "power_peak",
            "functional_eval",
            "fault_list",
            "detection_table",
            "release",
        ];
        let manifest: Vec<&str> = protocol_manifest().iter().map(|m| m.method).collect();
        assert_eq!(manifest, selectors);
        assert_eq!(component::FUNCTIONAL_EVAL, "functional_eval");
    }

    /// `cacheable_method` and the manifest are two expansions of the same
    /// rows; they must agree on every one.
    #[test]
    fn manifest_cache_allowlist_agrees_with_purity() {
        for m in protocol_manifest() {
            assert_eq!(
                cacheable_method(m.method),
                m.pure,
                "cacheability of `{}` disagrees with its declared purity",
                m.method
            );
        }
    }

    #[test]
    fn shipped_protocol_carries_no_structural_payloads() {
        assert!(!PayloadKind::Structural.is_port_local_safe());
        for m in protocol_manifest() {
            assert!(
                m.request.is_port_local_safe(),
                "`{}` request would ship structural IP",
                m.method
            );
            assert!(
                m.response.is_port_local_safe(),
                "`{}` response would ship structural IP",
                m.method
            );
        }
    }

    #[test]
    fn description_round_trips_and_needs_every_field() {
        let description = Description {
            name: "MultFastLowPower".into(),
            width: 4,
            public_behavior: "word-multiplier".into(),
        };
        let value = description.clone().into_value();
        assert_eq!(Description::from_value(value.clone()).unwrap(), description);
        let Value::Map(mut entries) = value else {
            unreachable!()
        };
        entries.retain(|(k, _)| k != "public_behavior");
        assert!(Description::from_value(Value::Map(entries)).is_err());
    }
}
