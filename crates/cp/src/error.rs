//! Control-plane access errors.

use std::error::Error;
use std::fmt;

/// An error produced by a control-plane table or programming-interface
/// access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpError {
    /// The DS-id exceeds the number of table rows this control plane was
    /// synthesised with.
    DsOutOfRange {
        /// The offending DS-id row index.
        ds: usize,
        /// Number of rows available.
        rows: usize,
    },
    /// No column with the requested name or offset exists in the table.
    UnknownColumn {
        /// Table name.
        table: &'static str,
        /// The offending column description.
        column: String,
    },
    /// The `addr` register's 2-bit table selector named a reserved table.
    BadTableSelect(u8),
    /// The `cmd` register held a value that is neither READ nor WRITE.
    BadCommand(u32),
    /// The trigger slot index exceeds the trigger table's capacity.
    TriggerSlotOutOfRange {
        /// The offending slot.
        slot: usize,
        /// Number of slots available.
        slots: usize,
    },
    /// The trigger's statistics-column index exceeds the width of the
    /// plane's statistics table, so the comparator could never observe a
    /// driven value. Rejected at install time as a programming error.
    TriggerColumnOutOfRange {
        /// The offending statistics-column offset.
        column: usize,
        /// Number of statistics columns this plane drives.
        width: usize,
    },
    /// A numeric column offset (the CPA `addr` path or a [`StatKey`])
    /// beyond the table's schema width.
    ///
    /// [`StatKey`]: crate::StatKey
    BadColumn {
        /// Table name.
        table: &'static str,
        /// The offending column offset.
        offset: usize,
        /// Number of columns the table actually has.
        width: usize,
    },
    /// Register-file access at an offset that is not a defined register.
    BadRegister(u64),
    /// A policy program failed to compile or validate at install time.
    ///
    /// Carries the source line and the offending token so shell and
    /// device-tree callers can point at exactly what was wrong — a policy
    /// must never install partially or fall back to defaults silently.
    Policy {
        /// 1-based source line of the offending token.
        line: usize,
        /// The offending token (empty when the rule ended prematurely).
        token: String,
        /// What the compiler expected or rejected.
        message: String,
    },
}

impl fmt::Display for CpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpError::DsOutOfRange { ds, rows } => {
                write!(f, "ds-id {ds} out of range for a {rows}-row table")
            }
            CpError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column:?} in {table} table")
            }
            CpError::BadTableSelect(sel) => write!(f, "reserved table selector {sel}"),
            CpError::BadCommand(cmd) => write!(f, "unknown control-plane command {cmd:#x}"),
            CpError::TriggerSlotOutOfRange { slot, slots } => {
                write!(f, "trigger slot {slot} out of range for {slots} slots")
            }
            CpError::TriggerColumnOutOfRange { column, width } => {
                write!(
                    f,
                    "trigger statistics column {column} out of range for a {width}-column table"
                )
            }
            CpError::BadColumn {
                table,
                offset,
                width,
            } => {
                write!(
                    f,
                    "column offset {offset} out of range for a {width}-column {table} table"
                )
            }
            CpError::BadRegister(off) => write!(f, "no CPA register at offset {off:#x}"),
            CpError::Policy {
                line,
                token,
                message,
            } => {
                if token.is_empty() {
                    write!(f, "policy line {line}: {message}")
                } else {
                    write!(f, "policy line {line}: {message} (at {token:?})")
                }
            }
        }
    }
}

impl Error for CpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = CpError::DsOutOfRange { ds: 300, rows: 256 };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("256"));
        let e = CpError::UnknownColumn {
            table: "parameter",
            column: "bogus".into(),
        };
        assert!(e.to_string().contains("bogus"));
        assert!(CpError::BadTableSelect(3).to_string().contains('3'));
        assert!(CpError::BadCommand(9).to_string().contains("0x9"));
        assert!(CpError::BadRegister(0x40).to_string().contains("0x40"));
        let e = CpError::TriggerColumnOutOfRange {
            column: 9,
            width: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = CpError::BadColumn {
            table: "statistics",
            offset: 7,
            width: 4,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains("statistics"));
        let e = CpError::Policy {
            line: 3,
            token: "prioritty".into(),
            message: "unknown parameter column".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("prioritty"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(CpError::BadCommand(0));
    }
}
