//! Single stuck-at faults.

use std::fmt;

use vcad_logic::Logic;
use vcad_netlist::{GateId, NetId, Netlist};
use vcad_rmi::{RmiError, Value, Wire};

/// The stuck polarity of a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StuckAt {
    /// Stuck at logic 0.
    Zero,
    /// Stuck at logic 1.
    One,
}

impl StuckAt {
    /// Both polarities.
    pub const BOTH: [StuckAt; 2] = [StuckAt::Zero, StuckAt::One];

    /// The logic value the fault forces.
    #[must_use]
    pub fn value(self) -> Logic {
        match self {
            StuckAt::Zero => Logic::Zero,
            StuckAt::One => Logic::One,
        }
    }

    /// The conventional suffix (`sa0` / `sa1`).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            StuckAt::Zero => "sa0",
            StuckAt::One => "sa1",
        }
    }
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Where a fault lives.
///
/// Stem faults affect a net everywhere; pin (branch) faults affect only
/// one consuming gate's view of the net. The distinction matters only on
/// fanout nets — on a fanout-free net the stem and its single branch are
/// equivalent, which the collapser exploits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// The whole net (stem).
    Net(NetId),
    /// One input pin of one gate (branch).
    Pin {
        /// The consuming gate.
        gate: GateId,
        /// The pin index within the gate's input list.
        pin: usize,
    },
}

/// A single stuck-at fault.
///
/// # Examples
///
/// ```
/// use vcad_faults::{Fault, FaultSite, StuckAt};
/// use vcad_netlist::generators;
///
/// let nl = generators::half_adder_nand();
/// let net = nl.find_net("I3").unwrap();
/// let f = Fault::new(FaultSite::Net(net), StuckAt::Zero);
/// assert_eq!(f.name(&nl).as_str(), "I3/sa0");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Where the fault is injected.
    pub site: FaultSite,
    /// The forced polarity.
    pub stuck: StuckAt,
}

impl Fault {
    /// Creates a fault.
    #[must_use]
    pub fn new(site: FaultSite, stuck: StuckAt) -> Fault {
        Fault { site, stuck }
    }

    /// The human-readable, structure-revealing name — for use *inside* the
    /// owning party only. What crosses the IP boundary is the opaque
    /// [`SymbolicFault`].
    #[must_use]
    pub fn name(&self, netlist: &Netlist) -> SymbolicFault {
        let text = match self.site {
            FaultSite::Net(n) => format!("{}/{}", netlist.net(n).name(), self.stuck),
            FaultSite::Pin { gate, pin } => {
                let g = netlist.gate(gate);
                let out = netlist.net(g.output()).name();
                format!("{out}.in{pin}/{}", self.stuck)
            }
        };
        SymbolicFault(text)
    }
}

/// An opaque fault identifier, meaningful only to the party that issued
/// it.
///
/// The paper's protocol exchanges fault lists and detection tables keyed by
/// symbolic names so that the user can track coverage without learning the
/// component's structure. Providers are free to obfuscate the names; this
/// implementation keeps them readable for debuggability, which changes
/// nothing about the protocol.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolicFault(pub String);

impl SymbolicFault {
    /// The identifier text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SymbolicFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SymbolicFault {
    fn from(s: &str) -> SymbolicFault {
        SymbolicFault(s.to_owned())
    }
}

/// A fault name crosses the wire as its text.
impl Wire for SymbolicFault {
    fn into_value(self) -> Value {
        Value::Str(self.0)
    }

    fn from_value(value: Value) -> Result<SymbolicFault, RmiError> {
        String::from_value(value).map(SymbolicFault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_netlist::generators;

    #[test]
    fn stuck_values() {
        assert_eq!(StuckAt::Zero.value(), Logic::Zero);
        assert_eq!(StuckAt::One.value(), Logic::One);
        assert_eq!(StuckAt::One.to_string(), "sa1");
    }

    #[test]
    fn fault_names() {
        let nl = generators::half_adder_nand();
        let i1 = nl.find_net("I1").unwrap();
        let stem = Fault::new(FaultSite::Net(i1), StuckAt::One);
        assert_eq!(stem.name(&nl).as_str(), "I1/sa1");
        let gate = nl.net(nl.find_net("I2").unwrap()).driver().unwrap();
        let pin = Fault::new(FaultSite::Pin { gate, pin: 1 }, StuckAt::Zero);
        assert_eq!(pin.name(&nl).as_str(), "I2.in1/sa0");
    }

    #[test]
    fn faults_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let nl = generators::half_adder();
        let mut set = HashSet::new();
        for (id, _) in nl.nets() {
            for s in StuckAt::BOTH {
                set.insert(Fault::new(FaultSite::Net(id), s));
            }
        }
        assert_eq!(set.len(), nl.net_count() * 2);
    }
}
