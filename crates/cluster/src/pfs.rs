//! A striped parallel filesystem over dedicated I/O server nodes.
//!
//! Lustre-style shape: clients stripe file data round-robin across object
//! servers; each server runs the *full single-node storage stack* (page
//! cache, extent allocator, journal barriers) on its own disk, with its own
//! power timeline. Stripes to different servers are serviced concurrently,
//! so parallel-file-system bandwidth — and its energy cost of many spinning
//! disks — emerges from the composition, which is exactly the future-work
//! question the paper poses about file systems.

use greenness_faults::{fnv1a64, FaultPlan, Site};
use greenness_platform::{HardwareSpec, Node, Phase, SimTime};
use greenness_storage::{FileSystem, FsConfig, FsError, MemBlockDevice};

use crate::error::ClusterError;
use crate::fabric::{sync_to, Fabric};

/// One object storage server: a node plus its filesystem.
#[derive(Debug)]
pub struct IoServer {
    /// The server's hardware clock + power timeline.
    pub node: Node,
    fs: FileSystem<MemBlockDevice>,
}

/// The parallel filesystem.
#[derive(Debug)]
pub struct ParallelFs {
    servers: Vec<IoServer>,
    stripe_bytes: usize,
    /// Per-server formatted capacity, for undersized-PFS diagnostics.
    capacity_bytes: u64,
    /// Bytes durably written so far (across all servers).
    written_bytes: u64,
    /// fsync retries across all servers: one per injected fsync fault,
    /// which the retry absorbs.
    fsync_retries: u64,
}

impl ParallelFs {
    /// Build a PFS with `n_servers` object servers of the given hardware,
    /// each formatted with `capacity_bytes` of storage, striping at
    /// `stripe_bytes`.
    pub fn new(
        n_servers: usize,
        spec: &HardwareSpec,
        stripe_bytes: usize,
        capacity_bytes: u64,
    ) -> ParallelFs {
        assert!(n_servers >= 1, "need at least one I/O server");
        assert!(stripe_bytes > 0, "stripe size must be positive");
        let servers = (0..n_servers)
            .map(|_| IoServer {
                node: Node::new(spec.clone()),
                fs: FileSystem::format(
                    MemBlockDevice::with_capacity_bytes(capacity_bytes),
                    FsConfig::default(),
                ),
            })
            .collect();
        ParallelFs {
            servers,
            stripe_bytes,
            capacity_bytes,
            written_bytes: 0,
            fsync_retries: 0,
        }
    }

    /// Install a seeded fault schedule: each object server gets its own
    /// fsync injector (salted by server index, so schedules are independent
    /// and stable under server-count changes to *other* configs).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        for (i, s) in self.servers.iter_mut().enumerate() {
            s.fs.set_fault_injector(plan.map(|p| p.injector(Site::StorageFsync, i as u64)));
        }
    }

    /// fsync retries so far — equally the injected fsync faults, since
    /// each one is absorbed by exactly one retry.
    pub fn fsync_retries(&self) -> u64 {
        self.fsync_retries
    }

    /// The servers (for energy accounting).
    pub fn servers(&self) -> &[IoServer] {
        &self.servers
    }

    /// Bytes durably written so far, across all servers.
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }

    fn stripe_file(name: &str, stripe: usize) -> String {
        format!("{name}.s{stripe:05}")
    }

    /// Round-robin starting server for a file, so small files distribute
    /// across servers instead of all landing on server 0.
    fn start_server(&self, name: &str) -> usize {
        (fnv1a64(name.as_bytes()) % self.servers.len() as u64) as usize
    }

    /// Map a server filesystem error into a cluster diagnostic. `NoSpace`
    /// becomes the undersized-PFS report (required vs configured capacity).
    fn wrap_fs_err(&self, file: &str, requested_bytes: u64, e: FsError) -> ClusterError {
        match e {
            FsError::NoSpace => ClusterError::PfsUndersized {
                file: file.to_string(),
                requested_bytes,
                written_bytes: self.written_bytes,
                capacity_bytes: self.capacity_bytes * self.servers.len() as u64,
                io_servers: self.servers.len(),
            },
            other => ClusterError::Fs {
                file: file.to_string(),
                source: other,
            },
        }
    }

    /// Striped durable write of `data` under `name` from `client`. The
    /// client ships each stripe over the fabric to its server, the server
    /// writes-and-fsyncs it, and the client returns once every stripe is
    /// durable (idling for stragglers). Injected fsync faults are absorbed
    /// by bounded retry with exponential backoff — the degraded server
    /// idles (real static energy) and recommits, slowing the run instead of
    /// aborting it.
    pub fn write(
        &mut self,
        client: &mut Node,
        fabric: &Fabric,
        name: &str,
        data: &[u8],
        phase: Phase,
    ) -> Result<(), ClusterError> {
        let n = self.servers.len();
        let start = self.start_server(name);
        for (k, chunk) in data.chunks(self.stripe_bytes).enumerate() {
            let idx = (start + k) % n;
            let fname = Self::stripe_file(name, k);
            let server = &mut self.servers[idx];
            fabric.transfer_reliable(client, &mut server.node, chunk.len() as u64, 1, phase)?;
            if let Err(e) = server.fs.write(&mut server.node, &fname, 0, chunk, phase) {
                return Err(self.wrap_fs_err(name, chunk.len() as u64, e));
            }
            let retries = server
                .fs
                .fsync_with_retry(&mut server.node, &fname, phase)
                .map_err(|e| self.wrap_fs_err(name, chunk.len() as u64, e))?;
            self.fsync_retries += u64::from(retries);
            self.written_bytes += chunk.len() as u64;
        }
        // The write returns when the slowest server acknowledges.
        let done = self
            .servers
            .iter()
            .map(|s| s.node.now())
            .max()
            .unwrap_or(client.now());
        sync_to(client, done, phase);
        Ok(())
    }

    /// Striped read of `name` back to `client`: servers fetch their stripes
    /// concurrently (from the moment the request arrives), then stream them
    /// to the client in order.
    pub fn read(
        &mut self,
        client: &mut Node,
        fabric: &Fabric,
        name: &str,
        phase: Phase,
    ) -> Result<Vec<u8>, ClusterError> {
        let n = self.servers.len();
        let start = self.start_server(name);
        // Discover the stripes (metadata lookup, not charged).
        let mut stripes = Vec::new();
        loop {
            let k = stripes.len();
            let server = &self.servers[(start + k) % n];
            let fname = Self::stripe_file(name, k);
            if !server.fs.exists(&fname) {
                break;
            }
            stripes.push(fname);
        }
        if stripes.is_empty() {
            return Err(ClusterError::Fs {
                file: name.to_string(),
                source: FsError::NotFound(name.to_string()),
            });
        }
        // Phase A: every involved server services its reads starting at the
        // request time, in parallel with the others.
        let request_t = client.now();
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(stripes.len());
        for (k, fname) in stripes.iter().enumerate() {
            let server = &mut self.servers[(start + k) % n];
            sync_to(&mut server.node, request_t, phase);
            let step = server
                .fs
                .size(fname)
                .and_then(|size| server.fs.read(&mut server.node, fname, 0, size, phase));
            match step {
                Ok(bytes) => payloads.push(bytes),
                Err(e) => return Err(self.wrap_fs_err(name, 0, e)),
            }
        }
        // Phase B: stream stripes to the client in order (its NIC
        // serializes).
        let mut out = Vec::with_capacity(payloads.iter().map(Vec::len).sum());
        for (k, payload) in payloads.into_iter().enumerate() {
            let server = &mut self.servers[(start + k) % n];
            fabric.transfer_reliable(&mut server.node, client, payload.len() as u64, 1, phase)?;
            out.extend(payload);
        }
        Ok(out)
    }

    /// `sync; drop_caches` on every server (the paper's §IV-C discipline),
    /// then align all server clocks.
    pub fn sync_and_drop_all(&mut self, phase: Phase) {
        for s in &mut self.servers {
            s.fs.sync(&mut s.node, phase);
            s.fs.drop_caches();
        }
        let t = self
            .servers
            .iter()
            .map(|s| s.node.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        for s in &mut self.servers {
            sync_to(&mut s.node, t, phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::NetModel;

    fn setup(n: usize) -> (Node, Fabric, ParallelFs) {
        let spec = HardwareSpec::table1();
        let client = Node::new(spec.clone());
        let pfs = ParallelFs::new(n, &spec, 128 * 1024, 256 * 1024 * 1024);
        (client, Fabric::new(NetModel::ten_gbe()), pfs)
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 241) as u8).collect()
    }

    #[test]
    fn striped_write_read_round_trip() {
        let (mut client, fabric, mut pfs) = setup(4);
        let data = payload(1_000_000);
        pfs.write(&mut client, &fabric, "snap", &data, Phase::Write)
            .unwrap();
        pfs.sync_and_drop_all(Phase::CacheControl);
        let back = pfs.read(&mut client, &fabric, "snap", Phase::Read).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn stripes_spread_across_servers() {
        let (mut client, fabric, mut pfs) = setup(4);
        let data = payload(4 * 128 * 1024); // exactly one stripe per server
        pfs.write(&mut client, &fabric, "f", &data, Phase::Write)
            .unwrap();
        for s in pfs.servers() {
            assert!(
                s.node.timeline().total_energy_j() > 0.0,
                "an idle server got no stripe"
            );
        }
    }

    #[test]
    fn more_servers_cut_write_latency() {
        let data = payload(16 * 128 * 1024);
        let wall = |n: usize| {
            let (mut client, fabric, mut pfs) = setup(n);
            pfs.write(&mut client, &fabric, "f", &data, Phase::Write)
                .unwrap();
            client.now().as_secs_f64()
        };
        let one = wall(1);
        let four = wall(4);
        assert!(four < one / 2.0, "1 server: {one}s, 4 servers: {four}s");
    }

    #[test]
    fn more_servers_burn_more_idle_energy() {
        // The cluster trade-off: faster wall time, more spinning hardware.
        let data = payload(4 * 128 * 1024);
        let energy = |n: usize| {
            let (mut client, fabric, mut pfs) = setup(n);
            pfs.write(&mut client, &fabric, "f", &data, Phase::Write)
                .unwrap();
            // Normalize: bring all servers to the client's clock so each
            // configuration accounts the same wall window.
            for s in &mut pfs.servers {
                sync_to(&mut s.node, client.now(), Phase::Idle);
            }
            let joules: f64 = pfs
                .servers()
                .iter()
                .map(|s| s.node.timeline().total_energy_j())
                .sum();
            joules / client.now().as_secs_f64()
        };
        assert!(
            energy(8) > energy(2),
            "aggregate PFS power should grow with servers"
        );
    }

    #[test]
    fn missing_file_is_an_error() {
        let (mut client, fabric, mut pfs) = setup(2);
        assert!(matches!(
            pfs.read(&mut client, &fabric, "ghost", Phase::Read),
            Err(ClusterError::Fs {
                source: FsError::NotFound(_),
                ..
            })
        ));
    }

    #[test]
    fn undersized_pfs_reports_required_vs_configured() {
        let spec = HardwareSpec::table1();
        let mut client = Node::new(spec.clone());
        let fabric = Fabric::new(NetModel::ten_gbe());
        // Two servers of 64 KiB each: a 1 MiB write cannot fit.
        let mut pfs = ParallelFs::new(2, &spec, 32 * 1024, 64 * 1024);
        let err = pfs
            .write(&mut client, &fabric, "big", &payload(1 << 20), Phase::Write)
            .unwrap_err();
        match err {
            ClusterError::PfsUndersized {
                capacity_bytes,
                io_servers,
                requested_bytes,
                ..
            } => {
                assert_eq!(capacity_bytes, 2 * 64 * 1024);
                assert_eq!(io_servers, 2);
                assert!(requested_bytes > 0);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn faulted_writes_recover_and_cost_more_time() {
        use greenness_faults::FaultPlan;
        let data = payload(16 * 128 * 1024);
        let wall = |plan: Option<FaultPlan>| {
            let (mut client, fabric, mut pfs) = setup(2);
            pfs.set_fault_plan(plan);
            pfs.write(&mut client, &fabric, "f", &data, Phase::Write)
                .unwrap();
            pfs.sync_and_drop_all(Phase::CacheControl);
            let back = pfs.read(&mut client, &fabric, "f", Phase::Read).unwrap();
            assert_eq!(back, data, "faulted write corrupted data");
            (client.now().as_secs_f64(), pfs.fsync_retries())
        };
        let (clean_s, r0) = wall(None);
        let (faulted_s, r1) = wall(Some(FaultPlan {
            storage_fsync_rate: 0.3,
            fabric_fault_rate: 0.0,
            ..FaultPlan::with_seed(17)
        }));
        assert_eq!(r0, 0);
        assert!(r1 > 0, "rate 0.3 over 16 stripes should fire");
        assert!(
            faulted_s > clean_s,
            "degraded run must be slower: {faulted_s} vs {clean_s}"
        );
    }

    #[test]
    fn client_waits_for_the_slowest_server() {
        let (mut client, fabric, mut pfs) = setup(3);
        let data = payload(9 * 128 * 1024);
        pfs.write(&mut client, &fabric, "f", &data, Phase::Write)
            .unwrap();
        let slowest = pfs.servers().iter().map(|s| s.node.now()).max().unwrap();
        assert!(client.now() >= slowest);
    }
}
