//! Typed errors of the engine layer: construction failures and the
//! per-replica fault taxonomy ensembles quarantine on.

/// Construction-time errors of the engine registry.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// An ensemble was requested with zero replicas.
    ZeroReplicas,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroReplicas => f.write_str("an ensemble needs at least one replica"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Why an ensemble replica was quarantined.
///
/// Replica work runs under `catch_unwind`; persistence goes through the
/// bounded-retry layer first.  A `ReplicaError` is therefore always a
/// *post-containment* fact: the panic was caught, or the retry budget was
/// exhausted, and the rest of the ensemble kept serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// The replica's worker panicked; the payload message is preserved.
    Panicked(String),
    /// The replica's WAL/snapshot persistence failed after bounded retry.
    Persist(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Panicked(message) => {
                write!(f, "replica worker panicked: {message}")
            }
            ReplicaError::Persist(message) => {
                write!(f, "replica persistence failed after retries: {message}")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        assert_eq!(
            EngineError::ZeroReplicas.to_string(),
            "an ensemble needs at least one replica"
        );
        assert_eq!(
            ReplicaError::Panicked("boom".into()).to_string(),
            "replica worker panicked: boom"
        );
        assert_eq!(
            ReplicaError::Persist("disk on fire".into()).to_string(),
            "replica persistence failed after retries: disk on fire"
        );
    }

    #[test]
    fn panic_payloads_downcast_to_messages() {
        let caught = std::panic::catch_unwind(|| panic!("static message")).expect_err("must panic");
        assert_eq!(panic_message(caught), "static message");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).expect_err("panics");
        assert_eq!(panic_message(caught), "formatted 7");
    }
}
