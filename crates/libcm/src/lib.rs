//! `libcm` — the user-space CM library model.
//!
//! In the paper (§2.2), user-space clients never talk to the kernel CM
//! directly; they link against **libcm**, which hides the kernel/user
//! notification machinery behind the `cm_*` calls and callbacks. The
//! chosen mechanism is:
//!
//! 1. `select()` on a single per-application **control socket** — the
//!    *write* bit means "some flow may send", the *exception* bit means
//!    "network conditions changed";
//! 2. an `ioctl` to extract *all* ready flow ids at once (or the current
//!    network state for a flow), minimizing kernel state and syscalls.
//!
//! This crate reproduces that layer's *semantics* and *costs*:
//!
//! * [`ControlSocket`] — the kernel-side readiness state: queued send
//!   permissions (all must be delivered; weak ordering, no starvation)
//!   and status changes (only the latest matters) — §2.2.2's rules;
//! * [`Dispatcher`] — the library-side wakeup logic for the three
//!   notification styles of §3.1 (select-loop, SIGIO, polling), with the
//!   kernel-crossing costs charged to the host CPU so Figure 6 and
//!   Table 1 fall out of the same code path applications actually run.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod control_socket;
pub mod dispatcher;

pub use control_socket::{ControlSocket, SelectBits};
pub use dispatcher::{DispatchStats, Dispatcher, NotifyMode, Wakeup};
