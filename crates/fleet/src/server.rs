//! The fleet's TCP front end: `greenness-serve`'s one accept/connection loop
//! with every line answered by [`Fleet::handle_line`].

use std::net::SocketAddr;
use std::sync::Arc;

use greenness_serve::Server;

use crate::fleet::Fleet;

/// A running fleet router: [`Server`] over a [`Fleet`], under fleet names.
pub struct FleetServer(Server<Fleet>);

impl FleetServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and route for `fleet` in background
    /// threads.
    pub fn start(addr: &str, fleet: Arc<Fleet>) -> std::io::Result<FleetServer> {
        Server::start_with_service(addr, fleet).map(FleetServer)
    }
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }
    /// The fleet behind the router.
    pub fn fleet(&self) -> &Arc<Fleet> {
        self.0.service()
    }
    /// Begin draining: close every live shard's gate, then stop accepting.
    pub fn shutdown(&self) {
        self.0.shutdown()
    }
    /// Wait until the accept loop and every connection thread exit.
    pub fn join(self) {
        self.0.join()
    }
    /// Block until asked to stop, then drain (`greenness fleet`'s main).
    pub fn run_to_completion(self) {
        self.0.run_to_completion()
    }
}
