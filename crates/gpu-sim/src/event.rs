//! Timing modes of the chip engine.
//!
//! [`crate::Gpu::run`] is one epoch-boundary loop with two settings that
//! produce bit-identical results:
//!
//! * **Event** ([`BackendKind::Event`], the default) — SMs are parked in a
//!   [`crate::timeq::TimeQueue`] and advance only when their *next event*
//!   (warp wakeup, reply delivery, dispatch) is due, skipping provably idle
//!   cycles in bulk; when nothing at all is due the whole chip sleeps
//!   through boundaries in closed form. Much faster on memory-bound
//!   workloads whose SMs spend most cycles stalled.
//! * **Epoch** ([`BackendKind::Epoch`]) — the reference mode. Every live SM
//!   is due at every boundary and steps every cycle: no parking, no sleep,
//!   no idle skip. It is what the equivalence tests compare the event mode
//!   against.
//!
//! [`crate::SimRequest::backend`] selects the mode; its label is recorded in
//! [`crate::SimResult::backend`].

use serde::{Deserialize, Serialize};

/// Which timing mode advances the chip. Serialises as its lowercase label
/// (`epoch` / `event`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// The reference mode: every live SM steps every cycle of every epoch.
    Epoch,
    /// The event-driven mode: next-event advancement, idle-cycle skipping.
    #[default]
    Event,
}

impl BackendKind {
    /// Both modes, reference first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Epoch, BackendKind::Event];

    /// The stable lowercase label (`"epoch"` / `"event"`) recorded in
    /// [`crate::SimResult::backend`].
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Epoch => "epoch",
            BackendKind::Event => "event",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(BackendKind::Epoch.label(), "epoch");
        assert_eq!(BackendKind::Event.to_string(), "event");
    }

    #[test]
    fn event_is_the_default() {
        assert_eq!(BackendKind::default(), BackendKind::Event);
    }
}
