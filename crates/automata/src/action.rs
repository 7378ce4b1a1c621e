//! Actions and their classification.

use core::fmt::Debug;
use core::hash::Hash;

/// A non-time-passage action of a timed, clock, or MMT automaton.
///
/// The paper's automata communicate through named actions (Section 2.1);
/// action sets may be infinite because actions carry parameters (for
/// example `SENDMSG_i(j, m)` ranges over all messages `m`). A concrete
/// system therefore defines one action *type* — typically an enum — whose
/// values are the individual actions, and implements this trait for it.
///
/// [`Action::name`] returns the action's *name* (the constructor, without
/// parameters); it is used for diagnostics and by the trace-relation
/// matchers when grouping actions.
///
/// # Examples
///
/// ```
/// use psync_automata::Action;
///
/// #[derive(Debug, Clone, PartialEq, Eq, Hash)]
/// enum Door { Open, Close, Knock { times: u8 } }
///
/// impl Action for Door {
///     fn name(&self) -> &'static str {
///         match self {
///             Door::Open => "OPEN",
///             Door::Close => "CLOSE",
///             Door::Knock { .. } => "KNOCK",
///         }
///     }
/// }
///
/// assert_eq!(Door::Knock { times: 3 }.name(), "KNOCK");
/// ```
pub trait Action: Clone + Eq + Hash + Debug + 'static {
    /// The action's name, without parameters.
    fn name(&self) -> &'static str;

    /// A key that narrows routing below the name: the parameters that
    /// decide *whose* action this is (for `SENDMSG_i(j, m)`, the edge
    /// `(i, j)`), packed into one word — or `None` (the default) when the
    /// name is all there is.
    ///
    /// Like [`TimedComponent::action_names`] this is a *routing hint*, not
    /// behaviour, and it is the second half of the same contract: **two
    /// actions with the same [`name`](Action::name) and the same key are
    /// in the signatures of the same components** — for every component
    /// `C`, `C.classify(a).is_some() == C.classify(b).is_some()`. The
    /// execution engine relies on it to remember, per `(name, key)`, which
    /// components to visit when such an action fires, instead of asking
    /// every component that lists the name. The key sits on the action
    /// rather than on the component traits so that wrappers (`Hidden`,
    /// `Pair`, `Relabel`, the boxes) need not forward anything.
    ///
    /// A key that is too coarse is always safe (`None` is the coarsest);
    /// one that separates less than a component's `classify` does — two
    /// actions sharing a key but not a signature — breaks routing silently
    /// in release builds. Debug builds re-derive the visit list by full
    /// scan on every fired action and assert it matches.
    ///
    /// [`TimedComponent::action_names`]: crate::TimedComponent::action_names
    fn route_key(&self) -> Option<u64> {
        None
    }
}

/// `&'static str` is an [`Action`] out of the box, which keeps examples and
/// tests lightweight: the action *is* its name.
impl Action for &'static str {
    fn name(&self) -> &'static str {
        self
    }
}

/// How an automaton classifies an action in its signature
/// (`sig(A) = (in(A), out(A), int(A))`, Definition 2.1).
///
/// The time-passage action `ν` is not represented here: time passage is a
/// dedicated operation ([`TimedComponent::advance`]) rather than a value of
/// the action type.
///
/// [`TimedComponent::advance`]: crate::TimedComponent::advance
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// Controlled by the environment; the automaton must be input-enabled.
    Input,
    /// Controlled by the automaton and visible to the environment.
    Output,
    /// Controlled by the automaton and invisible to the environment.
    Internal,
}

impl ActionKind {
    /// `true` for output and internal actions — the actions the automaton
    /// itself schedules (`locally controlled` in the paper).
    #[must_use]
    pub const fn is_locally_controlled(self) -> bool {
        matches!(self, ActionKind::Output | ActionKind::Internal)
    }

    /// `true` for input and output actions (`vis(A)` in the paper).
    #[must_use]
    pub const fn is_visible(self) -> bool {
        matches!(self, ActionKind::Input | ActionKind::Output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locally_controlled_classification() {
        assert!(!ActionKind::Input.is_locally_controlled());
        assert!(ActionKind::Output.is_locally_controlled());
        assert!(ActionKind::Internal.is_locally_controlled());
    }

    #[test]
    fn visibility_classification() {
        assert!(ActionKind::Input.is_visible());
        assert!(ActionKind::Output.is_visible());
        assert!(!ActionKind::Internal.is_visible());
    }
}
