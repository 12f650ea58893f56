//! Nonblocking networking for `nf serve` and `nf loadgen`: a thin epoll
//! binding ([`sys`]) and the reactor building blocks ([`reactor`]) built
//! on it.
//!
//! The split is deliberate: [`sys`] is the workspace's only unsafe
//! networking surface (typed `io::Error` wrappers over
//! `epoll`/`eventfd`/`fcntl`, one of the three unsafe modules
//! `tests/invariants.rs` pins), while [`reactor`] is 100% safe code — frame reassembly and
//! write-queue logic that unit tests drive without a kernel, and the one
//! connection type (`reactor::Conn`) both loops drive. The event loops
//! themselves live with their owners: the server reactor in
//! [`crate::serve`], the client mux in [`crate::loadgen`].

pub mod reactor;
pub mod sys;
