//! Near (budgeted) and far (unbounded or tiered) activation stores.

use karma_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// One level of the far-memory hierarchy: a byte capacity plus a transfer
/// price. `copy_passes` is the number of full memory passes a transfer
/// through this tier costs relative to host DRAM (host = 1); the
/// `TierStack` really performs that many passes, so slower tiers cost real
/// wall time, not just modeled time. `link_ns_per_kib` adds a *link
/// occupancy* price — nanoseconds the transfer holds the interconnect per
/// KiB moved, realized as a real sleep. The copy passes model the
/// memory-bandwidth cost (CPU-bound, unhideable on one core); the link
/// price models the DMA/PCIe/NVMe wire time, which a dedicated I/O lane
/// can fully overlap with compute. This mirrors the ZeRO-Infinity tier
/// stack (device ↔ host ↔ NVMe), where each level trades capacity for
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Byte capacity of this tier (`usize::MAX` = unbounded).
    pub capacity: usize,
    /// Memory passes per transfer through this tier (>= 1; host = 1).
    pub copy_passes: usize,
    /// Link occupancy in nanoseconds per KiB transferred (0 = free link).
    /// Paid as a real `thread::sleep` by whichever thread executes the
    /// transfer: the compute thread for an inline transfer, an I/O lane
    /// otherwise.
    pub link_ns_per_kib: u64,
}

impl TierSpec {
    /// An unbounded host-speed tier: the classic single far-memory pool
    /// as a one-tier stack.
    pub fn unbounded() -> Self {
        TierSpec {
            capacity: usize::MAX,
            copy_passes: 1,
            link_ns_per_kib: 0,
        }
    }

    /// A host-DRAM tier with `capacity` bytes (1 pass per transfer).
    pub fn host(capacity: usize) -> Self {
        TierSpec {
            capacity,
            copy_passes: 1,
            link_ns_per_kib: 0,
        }
    }

    /// A simulated NVMe tier with `capacity` bytes. Four passes per
    /// transfer approximates the DRAM-vs-NVMe bandwidth gap at the scale
    /// of these micro-benchmarks.
    pub fn nvme(capacity: usize) -> Self {
        TierSpec {
            capacity,
            copy_passes: 4,
            link_ns_per_kib: 0,
        }
    }

    /// The same tier with a link-occupancy price of `ns_per_kib`
    /// nanoseconds per KiB transferred.
    pub fn with_link(mut self, ns_per_kib: u64) -> Self {
        self.link_ns_per_kib = ns_per_kib;
        self
    }

    /// Wall-clock the link is held for a `bytes`-sized transfer.
    pub fn link_time(&self, bytes: usize) -> Duration {
        // Round up so a nonzero-priced link is never free for small
        // transfers.
        let kib = (bytes as u64).div_ceil(1024);
        Duration::from_nanos(kib.saturating_mul(self.link_ns_per_kib))
    }
}

/// Per-tier state: a traffic and residency ledger plus the tier's spec.
/// `slots` holds tensors parked with [`TierStack::swap_out`] (e.g.
/// checkpoints); `charged` holds the swap engine's byte-only charges,
/// whose tensors travel through a [`SlotStore`] while the accounting
/// stays on the compute thread.
#[derive(Debug)]
struct TierState {
    spec: TierSpec,
    slots: HashMap<usize, Tensor>,
    charged: HashMap<usize, usize>,
    bytes_in: usize,
    bytes_out: usize,
    transfers: usize,
    resident: usize,
    peak_resident: usize,
}

impl TierState {
    fn new(spec: TierSpec) -> Self {
        TierState {
            spec,
            slots: HashMap::new(),
            charged: HashMap::new(),
            bytes_in: 0,
            bytes_out: 0,
            transfers: 0,
            resident: 0,
            peak_resident: 0,
        }
    }
}

/// Run `passes` full copy passes over `t`. The copies are real (and
/// `black_box`ed so the optimizer cannot elide them): this is where a slow
/// tier's bandwidth price becomes measured wall time. Cloning is bitwise,
/// so pricing never perturbs determinism.
fn priced_copy(t: Tensor, passes: usize) -> Tensor {
    let mut cur = t;
    for _ in 0..passes {
        cur = std::hint::black_box(cur.clone());
    }
    cur
}

/// Perform one full transfer of `t` through a tier: the priced copy
/// passes (memory-bandwidth cost) plus the link-occupancy sleep (wire
/// time). This is the single definition of a transfer's wall price —
/// the swap engine runs it inline on the compute thread or on an I/O
/// lane. Bitwise-neutral.
pub fn priced_transfer(t: Tensor, spec: &TierSpec) -> Tensor {
    let bytes = t.bytes();
    let out = priced_copy(t, spec.copy_passes);
    let link = spec.link_time(bytes);
    if !link.is_zero() {
        std::thread::sleep(link);
    }
    out
}

/// An ordered stack of far-memory tiers (e.g. host DRAM, then simulated
/// NVMe), each with its own capacity, transfer price and traffic
/// accounting. The whole-stack `resident_bytes` / `peak_resident_bytes`
/// counters track the *total* parked bytes, so a one-tier unbounded
/// stack is the classic single pool.
#[derive(Debug)]
pub struct TierStack {
    tiers: Vec<TierState>,
    resident: usize,
    peak_resident: usize,
}

impl TierStack {
    /// A stack over `specs`, ordered fastest-first. Panics if `specs` is
    /// empty or any tier prices a transfer at zero passes.
    pub fn new(specs: &[TierSpec]) -> Self {
        assert!(!specs.is_empty(), "tier stack needs at least one tier");
        for (i, s) in specs.iter().enumerate() {
            assert!(
                s.copy_passes >= 1,
                "tier {i} prices a transfer at zero passes"
            );
        }
        TierStack {
            tiers: specs.iter().map(|s| TierState::new(*s)).collect(),
            resident: 0,
            peak_resident: 0,
        }
    }

    /// Number of tiers in the stack.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The spec of tier `tier` (what a lane job needs to price a copy).
    pub fn spec(&self, tier: usize) -> TierSpec {
        self.tiers[tier].spec
    }

    /// Swap a tensor out of the device into tier `tier`. Panics if the
    /// slot is occupied or the tier's capacity would be exceeded — like
    /// `NearMemory`, the caller (the lowered schedule) must have proven
    /// the transfer fits; capacity-infeasible plans are rejected with
    /// typed errors at lowering time, never here.
    pub fn swap_out(&mut self, tier: usize, key: usize, t: Tensor) {
        let bytes = t.bytes();
        let spec = self.charge_out(tier, key, bytes);
        let t = priced_transfer(t, &spec);
        // This path stores the tensor itself; the byte-only charge
        // marker is for the swap engine's ledger and must not linger.
        self.tiers[tier].charged.remove(&key);
        self.tiers[tier].slots.insert(key, t);
    }

    /// Swap a tensor back in from tier `tier` (removes it from the tier).
    pub fn swap_in(&mut self, tier: usize, key: usize) -> Tensor {
        let t = self.tiers[tier]
            .slots
            .remove(&key)
            .unwrap_or_else(|| panic!("far-memory tier {tier} slot {key} is empty"));
        self.discharge_in(tier, t.bytes());
        let spec = self.tiers[tier].spec;
        priced_transfer(t, &spec)
    }

    /// Accounting half of a swap-out: charge `bytes` under `key` to tier
    /// `tier`'s ledger (occupancy + capacity asserted, traffic counted,
    /// peaks advanced) without storing or pricing a tensor. The swap
    /// engine calls this at *issue* time on the compute thread while the
    /// physical copy runs as a transfer job; returns the tier's spec so
    /// the job can price the copy identically.
    pub fn charge_out(&mut self, tier: usize, key: usize, bytes: usize) -> TierSpec {
        let ts = &mut self.tiers[tier];
        assert!(
            !ts.slots.contains_key(&key) && !ts.charged.contains_key(&key),
            "far-memory tier {tier} slot {key} already occupied"
        );
        assert!(
            ts.resident + bytes <= ts.spec.capacity,
            "far-memory tier {tier} OOM: need {bytes} B with {} B resident of {} B capacity",
            ts.resident,
            ts.spec.capacity
        );
        ts.charged.insert(key, bytes);
        ts.bytes_out += bytes;
        ts.transfers += 1;
        ts.resident += bytes;
        ts.peak_resident = ts.peak_resident.max(ts.resident);
        self.resident += bytes;
        self.peak_resident = self.peak_resident.max(self.resident);
        ts.spec
    }

    /// Accounting half of a swap-in: release `bytes` from tier `tier`'s
    /// ledger. The swap engine does this at the transfer's *wait point*,
    /// not at issue — so while a lane transfer is in flight its bytes
    /// stay charged to the source tier, which is exactly the in-flight
    /// residency the overlap replay predicts.
    fn discharge_in(&mut self, tier: usize, bytes: usize) {
        let ts = &mut self.tiers[tier];
        ts.bytes_in += bytes;
        ts.transfers += 1;
        ts.resident -= bytes;
        self.resident -= bytes;
    }

    /// Ledger-only swap-in release for a charge made with
    /// [`TierStack::charge_out`]. Returns the charged byte count.
    pub fn discharge(&mut self, tier: usize, key: usize) -> usize {
        let bytes = self.charged(tier, key);
        self.tiers[tier].charged.remove(&key);
        self.discharge_in(tier, bytes);
        bytes
    }

    /// Bytes charged under `key` in tier `tier` by
    /// [`TierStack::charge_out`] and not yet discharged.
    pub(crate) fn charged(&self, tier: usize, key: usize) -> usize {
        *self.tiers[tier]
            .charged
            .get(&key)
            .unwrap_or_else(|| panic!("far-memory tier {tier} slot {key} has no charge"))
    }

    /// Is `key` present in tier `tier`?
    pub fn contains(&self, tier: usize, key: usize) -> bool {
        self.tiers[tier].slots.contains_key(&key)
    }

    /// Bytes currently parked across all tiers.
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// High-water mark of the total parked bytes.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }

    /// Bytes currently parked in tier `tier`.
    pub fn tier_resident_bytes(&self, tier: usize) -> usize {
        self.tiers[tier].resident
    }

    /// Per-tier resident bytes, fastest tier first.
    pub fn tier_resident(&self) -> Vec<usize> {
        self.tiers.iter().map(|t| t.resident).collect()
    }

    /// Per-tier high-water marks, fastest tier first.
    pub fn peak_tier_bytes(&self) -> Vec<usize> {
        self.tiers.iter().map(|t| t.peak_resident).collect()
    }

    /// Total bytes moved tiers→device so far.
    pub fn bytes_swapped_in(&self) -> usize {
        self.tiers.iter().map(|t| t.bytes_in).sum()
    }

    /// Total bytes moved device→tiers so far.
    pub fn bytes_swapped_out(&self) -> usize {
        self.tiers.iter().map(|t| t.bytes_out).sum()
    }

    /// Number of individual transfers across all tiers.
    pub fn transfers(&self) -> usize {
        self.tiers.iter().map(|t| t.transfers).sum()
    }
}

/// Device-side store with a hard byte budget. Inserting beyond the budget
/// panics — the executor must have made room first, exactly like a real
/// allocator returning OOM.
#[derive(Debug)]
pub struct NearMemory {
    budget: usize,
    used: usize,
    peak: usize,
    slots: HashMap<usize, Tensor>,
    /// Byte-only reservations for in-flight fetches: the swap engine
    /// charges near memory at a transfer's *issue* point (so the
    /// residency trajectory does not depend on where the transfer is
    /// waited) and deposits the tensor itself at the wait.
    pending: HashMap<usize, usize>,
}

impl NearMemory {
    /// A store with `budget` bytes of capacity.
    pub fn new(budget: usize) -> Self {
        NearMemory {
            budget,
            used: 0,
            peak: 0,
            slots: HashMap::new(),
            pending: HashMap::new(),
        }
    }

    /// Store tensor under `key`. Panics if the budget would be exceeded or
    /// the key is occupied.
    pub fn put(&mut self, key: usize, t: Tensor) {
        self.reserve(key, t.bytes());
        self.fulfill(key, t);
    }

    /// Remove and return the tensor under `key`.
    pub fn take(&mut self, key: usize) -> Tensor {
        let t = self
            .slots
            .remove(&key)
            .unwrap_or_else(|| panic!("near-memory slot {key} is empty"));
        self.used -= t.bytes();
        t
    }

    /// Charge `bytes` under `key` for an in-flight fetch: the budget is
    /// asserted and `used`/`peak` advance, but the slot holds no tensor
    /// yet — [`NearMemory::fulfill`] deposits it later without a second
    /// charge. Panics on an occupied key or a blown budget.
    pub fn reserve(&mut self, key: usize, bytes: usize) {
        assert!(
            !self.slots.contains_key(&key) && !self.pending.contains_key(&key),
            "near-memory slot {key} already occupied"
        );
        assert!(
            self.used + bytes <= self.budget,
            "near-memory OOM: need {bytes} B with {} B used of {} B budget",
            self.used,
            self.budget
        );
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        self.pending.insert(key, bytes);
    }

    /// Deposit the tensor for a reservation made with
    /// [`NearMemory::reserve`]. Panics if `key` was never reserved or the
    /// tensor's size does not match the reservation.
    pub fn fulfill(&mut self, key: usize, t: Tensor) {
        let bytes = self
            .pending
            .remove(&key)
            .unwrap_or_else(|| panic!("near-memory slot {key} has no reservation"));
        assert_eq!(
            t.bytes(),
            bytes,
            "near-memory slot {key} fulfilled with a tensor of the wrong size"
        );
        self.slots.insert(key, t);
    }

    /// Borrow the tensor under `key`.
    pub fn get(&self, key: usize) -> &Tensor {
        self.slots
            .get(&key)
            .unwrap_or_else(|| panic!("near-memory slot {key} is empty"))
    }

    /// Is `key` resident?
    pub fn contains(&self, key: usize) -> bool {
        self.slots.contains_key(&key)
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// High-water mark.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The configured budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes still available.
    pub fn free(&self) -> usize {
        self.budget - self.used
    }
}

/// Thread-shared parking space for in-flight tensors, keyed by
/// `(tier, key)`. The swap engine's swap-out jobs `put` here after their
/// priced copy completes, and the matching swap-in jobs `take` from here
/// — same-lane FIFO ordering (or, inline, program order) guarantees the
/// put lands first. A tensor is only ever published *whole*: a job that
/// panics mid-copy never inserts, so partial copies are unobservable.
#[derive(Debug, Default)]
pub struct SlotStore {
    slots: Mutex<HashMap<(usize, usize), Tensor>>,
}

impl SlotStore {
    /// Empty store.
    pub fn new() -> Self {
        SlotStore::default()
    }

    /// Park a fully-copied tensor under `(tier, key)`.
    pub fn put(&self, tier: usize, key: usize, t: Tensor) {
        let mut slots = self.slots.lock().unwrap();
        let prev = slots.insert((tier, key), t);
        assert!(
            prev.is_none(),
            "slot-store tier {tier} slot {key} already occupied"
        );
    }

    /// Remove and return the tensor under `(tier, key)`.
    pub fn take(&self, tier: usize, key: usize) -> Tensor {
        self.slots
            .lock()
            .unwrap()
            .remove(&(tier, key))
            .unwrap_or_else(|| panic!("slot-store tier {tier} slot {key} is empty"))
    }

    /// Number of tensors currently parked.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(bytes: usize) -> Tensor {
        Tensor::zeros(&[bytes / 4])
    }

    #[test]
    fn near_memory_tracks_usage_and_peak() {
        let mut near = NearMemory::new(100);
        near.put(0, t(40));
        near.put(1, t(40));
        assert_eq!(near.used(), 80);
        assert_eq!(near.free(), 20);
        let a = near.take(0);
        assert_eq!(a.bytes(), 40);
        assert_eq!(near.used(), 40);
        assert_eq!(near.peak(), 80);
    }

    #[test]
    #[should_panic(expected = "OOM")]
    fn near_memory_enforces_budget() {
        let mut near = NearMemory::new(64);
        near.put(0, t(40));
        near.put(1, t(40));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn near_memory_rejects_double_put() {
        let mut near = NearMemory::new(100);
        near.put(0, t(4));
        near.put(0, t(4));
    }

    #[test]
    fn near_memory_reservations_charge_like_puts() {
        let mut near = NearMemory::new(100);
        near.reserve(0, 60);
        assert_eq!(near.used(), 60);
        assert_eq!(near.peak(), 60);
        near.fulfill(0, t(60));
        assert_eq!(near.used(), 60, "fulfill does not double-charge");
        assert_eq!(near.take(0).bytes(), 60);
        assert_eq!(near.used(), 0);
    }

    #[test]
    #[should_panic(expected = "OOM")]
    fn near_memory_reservations_count_against_the_budget() {
        let mut near = NearMemory::new(64);
        near.reserve(0, 40);
        near.put(1, t(40));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn near_memory_put_on_a_reserved_slot_panics() {
        let mut near = NearMemory::new(100);
        near.reserve(0, 4);
        near.put(0, t(4));
    }

    #[test]
    #[should_panic(expected = "no reservation")]
    fn near_memory_fulfill_without_reservation_panics() {
        NearMemory::new(100).fulfill(0, t(4));
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn near_memory_fulfill_size_mismatch_panics() {
        let mut near = NearMemory::new(100);
        near.reserve(0, 8);
        near.fulfill(0, t(4));
    }

    /// The classic single far-memory pool: one unbounded host tier.
    fn pool() -> TierStack {
        TierStack::new(&[TierSpec::unbounded()])
    }

    #[test]
    fn far_memory_counts_traffic() {
        let mut far = pool();
        far.swap_out(0, 3, t(100));
        assert!(far.contains(0, 3));
        assert_eq!(far.resident_bytes(), 100);
        let back = far.swap_in(0, 3);
        assert_eq!(back.bytes(), 100);
        assert_eq!(far.bytes_swapped_out(), 100);
        assert_eq!(far.bytes_swapped_in(), 100);
        assert_eq!(far.transfers(), 2);
        assert!(!far.contains(0, 3));
        assert_eq!(far.resident_bytes(), 0);
        assert_eq!(far.peak_resident_bytes(), 100);
    }

    #[test]
    fn far_memory_peak_tracks_concurrent_residency() {
        let mut far = pool();
        far.swap_out(0, 0, t(40));
        far.swap_out(0, 1, t(60));
        far.swap_in(0, 0);
        far.swap_out(0, 2, t(20));
        assert_eq!(far.peak_resident_bytes(), 100);
        assert_eq!(far.resident_bytes(), 80);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn far_memory_swap_in_of_missing_key_panics() {
        pool().swap_in(0, 9);
    }

    #[test]
    fn far_memory_zero_byte_tensors_round_trip_without_moving_bytes() {
        let mut far = pool();
        far.swap_out(0, 0, t(0));
        assert!(far.contains(0, 0));
        assert_eq!(far.resident_bytes(), 0);
        assert_eq!(far.peak_resident_bytes(), 0);
        let back = far.swap_in(0, 0);
        assert_eq!(back.bytes(), 0);
        assert_eq!(
            far.transfers(),
            2,
            "zero-byte moves still count as transfers"
        );
        assert_eq!(far.bytes_swapped_out(), 0);
    }

    #[test]
    fn far_memory_reswap_of_just_swapped_key_reuses_the_slot() {
        let mut far = pool();
        far.swap_out(0, 5, t(40));
        let back = far.swap_in(0, 5);
        // Swapping the same key right back out must find the slot free.
        far.swap_out(0, 5, back);
        assert_eq!(far.resident_bytes(), 40);
        assert_eq!(
            far.peak_resident_bytes(),
            40,
            "re-swap does not double-count"
        );
        assert_eq!(far.transfers(), 3);
        assert_eq!(far.bytes_swapped_out(), 80);
        assert_eq!(far.bytes_swapped_in(), 40);
    }

    #[test]
    fn far_memory_peak_tracks_interleaved_boundary_and_block_transfers() {
        // A block's interiors (keys 1,2) and its boundary (key 3) leave at
        // different times and return in the opposite order, the way the
        // executor interleaves SwapOut/BoundaryOut and SwapIn/BoundaryIn.
        let mut far = pool();
        far.swap_out(0, 1, t(40)); // interior
        far.swap_out(0, 2, t(40)); // interior
        assert_eq!(far.peak_resident_bytes(), 80);
        far.swap_out(0, 3, t(20)); // boundary departs later
        assert_eq!(far.peak_resident_bytes(), 100, "peak includes the boundary");
        far.swap_in(0, 3); // boundary returns first
        far.swap_out(0, 4, t(32)); // next block departs while interiors parked
        assert_eq!(far.resident_bytes(), 112);
        assert_eq!(far.peak_resident_bytes(), 112, "peak advances past the dip");
        far.swap_in(0, 1);
        far.swap_in(0, 2);
        far.swap_in(0, 4);
        assert_eq!(far.resident_bytes(), 0);
        assert_eq!(far.peak_resident_bytes(), 112, "peak is a high-water mark");
        assert_eq!(far.peak_tier_bytes(), vec![112]);
    }

    #[test]
    fn tier_stack_tracks_per_tier_and_whole_stack_peaks() {
        let mut stack = TierStack::new(&[TierSpec::host(100), TierSpec::nvme(200)]);
        stack.swap_out(0, 1, t(40));
        stack.swap_out(1, 2, t(60));
        stack.swap_out(0, 3, t(20));
        assert_eq!(stack.tier_resident(), vec![60, 60]);
        assert_eq!(stack.resident_bytes(), 120);
        stack.swap_in(0, 1);
        stack.swap_out(1, 4, t(100));
        // Tier peaks are per-tier high-water marks; the stack peak is the
        // high-water mark of the *sum*, which the per-tier peaks need not
        // add up to (they peaked at different times).
        assert_eq!(stack.peak_tier_bytes(), vec![60, 160]);
        assert_eq!(stack.peak_resident_bytes(), 180);
        assert_eq!(stack.tier_resident_bytes(0), 20);
        assert_eq!(stack.tier_resident_bytes(1), 160);
        assert_eq!(stack.transfers(), 5);
    }

    #[test]
    fn tier_stack_zero_byte_tensor_and_reswap_edge_cases() {
        let mut stack = TierStack::new(&[TierSpec::host(64)]);
        stack.swap_out(0, 0, t(0));
        assert!(stack.contains(0, 0));
        assert_eq!(stack.resident_bytes(), 0);
        let z = stack.swap_in(0, 0);
        assert_eq!(z.bytes(), 0);
        // Re-swap of the just-swapped key into a bounded tier must see the
        // capacity it released.
        stack.swap_out(0, 7, t(64));
        let back = stack.swap_in(0, 7);
        stack.swap_out(0, 7, back);
        assert_eq!(stack.tier_resident_bytes(0), 64);
        assert_eq!(stack.peak_tier_bytes(), vec![64]);
    }

    #[test]
    #[should_panic(expected = "tier 1 OOM")]
    fn tier_stack_enforces_per_tier_capacity() {
        let mut stack = TierStack::new(&[TierSpec::host(100), TierSpec::nvme(50)]);
        stack.swap_out(1, 0, t(40));
        stack.swap_out(1, 1, t(40));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn tier_stack_rejects_double_swap_out_within_a_tier() {
        let mut stack = TierStack::new(&[TierSpec::unbounded()]);
        stack.swap_out(0, 0, t(4));
        stack.swap_out(0, 0, t(4));
    }

    #[test]
    fn tier_spec_link_time_rounds_up_and_scales() {
        let s = TierSpec::host(1024).with_link(1000);
        assert_eq!(s.link_time(0), Duration::ZERO);
        assert_eq!(s.link_time(1), Duration::from_nanos(1000), "rounds up");
        assert_eq!(s.link_time(2048), Duration::from_nanos(2000));
        assert_eq!(
            TierSpec::host(10).link_time(4096),
            Duration::ZERO,
            "unpriced links are free"
        );
    }

    #[test]
    fn ledger_charge_discharge_matches_sync_accounting() {
        let mut sync = TierStack::new(&[TierSpec::host(100)]);
        let mut ledger = TierStack::new(&[TierSpec::host(100)]);
        sync.swap_out(0, 1, t(40));
        ledger.charge_out(0, 1, 40);
        assert_eq!(sync.tier_resident(), ledger.tier_resident());
        assert_eq!(sync.bytes_swapped_out(), ledger.bytes_swapped_out());
        sync.swap_in(0, 1);
        assert_eq!(ledger.discharge(0, 1), 40);
        assert_eq!(sync.tier_resident(), ledger.tier_resident());
        assert_eq!(sync.peak_tier_bytes(), ledger.peak_tier_bytes());
        assert_eq!(sync.transfers(), ledger.transfers());
        assert_eq!(sync.bytes_swapped_in(), ledger.bytes_swapped_in());
        // The released capacity is reusable, exactly like the sync path.
        ledger.charge_out(0, 1, 100);
    }

    #[test]
    #[should_panic(expected = "OOM")]
    fn ledger_charge_counts_in_flight_bytes_against_capacity() {
        let mut ledger = TierStack::new(&[TierSpec::host(64)]);
        ledger.charge_out(0, 0, 40);
        // Key 0 is still charged (in flight, not yet discharged at its
        // deadline), so a second 40 B charge must not fit.
        ledger.charge_out(0, 1, 40);
    }

    #[test]
    #[should_panic(expected = "has no charge")]
    fn ledger_discharge_of_uncharged_key_panics() {
        TierStack::new(&[TierSpec::unbounded()]).discharge(0, 3);
    }

    #[test]
    fn slot_store_round_trips_whole_tensors() {
        let store = SlotStore::new();
        let src = Tensor::from_vec(&[8], (0..8).map(|i| i as f32).collect());
        store.put(1, 5, src.clone());
        assert_eq!(store.len(), 1);
        let back = store.take(1, 5);
        assert_eq!(back.data, src.data);
        assert!(store.is_empty());
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn slot_store_rejects_double_put() {
        let store = SlotStore::new();
        store.put(0, 0, t(4));
        store.put(0, 0, t(4));
    }

    #[test]
    fn tier_stack_priced_copies_preserve_bits() {
        let src = Tensor::from_vec(&[64], (0..64).map(|i| (i as f32).sin()).collect());
        let mut cheap = TierStack::new(&[TierSpec::host(usize::MAX)]);
        let mut dear = TierStack::new(&[TierSpec::nvme(usize::MAX)]);
        cheap.swap_out(0, 0, src.clone());
        dear.swap_out(0, 0, src.clone());
        let a = cheap.swap_in(0, 0);
        let b = dear.swap_in(0, 0);
        assert_eq!(a.data, b.data, "transfer pricing must be bitwise-neutral");
        assert_eq!(a.data, src.data);
    }
}
