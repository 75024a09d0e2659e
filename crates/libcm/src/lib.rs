//! `libcm` — the user-space CM library model.
//!
//! In the paper (§2.2), user-space clients never talk to the kernel CM
//! directly; they link against **libcm**, which hides the kernel/user
//! notification machinery behind the `cm_*` calls and callbacks. The
//! chosen mechanism is `select()` on a single per-application **control
//! socket**, whose write bit means "some flow may send", then one
//! `ioctl` that extracts *all* ready flow ids at once, minimizing kernel
//! state and syscalls.
//!
//! This crate models the one path an application here takes, select-loop
//! wakeups that deliver send grants, with its semantics and its costs:
//!
//! * [`ControlSocket`] — the kernel-side readiness state: queued send
//!   permissions, all delivered, in a weak order that starves no flow
//!   (§2.2.2's rules);
//! * [`Dispatcher`] — the library-side wakeup logic, charging the
//!   `select` and the `ioctl` to the host CPU so Figure 6 and Table 1
//!   fall out of the same code path applications actually run.
//!
//! The paper's socket also signals status changes (its exception bit),
//! and §3.1 offers SIGIO and polling besides `select`. Those are not
//! modelled: a rate change reaches a user-space app as a direct
//! `HostApp::on_cm_rate_change` callback, which crosses no modelled
//! socket and is charged no syscall.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod control_socket;
pub mod dispatcher;

pub use control_socket::ControlSocket;
pub use dispatcher::{DispatchStats, Dispatcher, NotifyMode};
