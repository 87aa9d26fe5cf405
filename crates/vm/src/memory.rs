//! Sparse, page-granular data memory.

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const N_PAGES: usize = 1 << (32 - PAGE_SHIFT);
const LEAF_BITS: u32 = 10;
const LEAF_SLOTS: usize = 1 << LEAF_BITS;
const DIR_SHIFT: u32 = PAGE_SHIFT + LEAF_BITS;
const DIR_SLOTS: usize = 1 << (32 - DIR_SHIFT);

// Page-table lookups sit on the hot path of every simulated memory
// access, and a sampled run clones the whole machine once per window, so
// the table must be both cheap to walk and cheap to copy. It is a
// two-level radix table: a fixed 1024-entry directory (8 KB) of lazily
// allocated 1024-slot leaves (8 KB each, one per touched 4 MB region).
// A lookup is two dependent loads with no hashing, probing or bounds
// check (both indices are masked shifts of a `u32`), and creating,
// cloning or dropping a memory costs only the leaves and pages that
// exist: for the workloads, a handful of leaves and tens of pages.
type Page = Box<[u8; PAGE_SIZE]>;
type Leaf = [Option<Page>; LEAF_SLOTS];

/// A sparse 32-bit byte-addressable memory.
///
/// Pages (4 KB) are allocated on first write; reads of untouched memory
/// return zero, matching the zero-initialised `.bss`/stack semantics the
/// synthetic workloads rely on. All multi-byte accesses are little-endian.
/// Alignment is *not* checked here — the [`crate::Vm`] enforces it so that
/// misalignment errors carry the faulting pc.
#[derive(Clone, Debug)]
pub struct SparseMemory {
    dir: Box<[Option<Box<Leaf>>; DIR_SLOTS]>,
    resident: usize,
}

impl Default for SparseMemory {
    fn default() -> SparseMemory {
        SparseMemory {
            dir: Box::new([const { None }; DIR_SLOTS]),
            resident: 0,
        }
    }
}

/// Index of `addr`'s page within its leaf.
#[inline]
fn leaf_index(addr: u32) -> usize {
    ((addr >> PAGE_SHIFT) as usize) & (LEAF_SLOTS - 1)
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Number of 4 KB pages currently materialised.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        let leaf = self.dir[(addr >> DIR_SHIFT) as usize].as_deref()?;
        leaf[leaf_index(addr)].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let resident = &mut self.resident;
        let leaf = self.dir[(addr >> DIR_SHIFT) as usize]
            .get_or_insert_with(|| Box::new([const { None }; LEAF_SLOTS]));
        leaf[leaf_index(addr)].get_or_insert_with(|| {
            *resident += 1;
            Box::new([0; PAGE_SIZE])
        })
    }

    /// Iterates the resident pages as `(page_index, bytes)` pairs in
    /// ascending page order — the serialization view used by checkpoints.
    pub fn resident_page_bytes(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        self.dir
            .iter()
            .enumerate()
            .filter_map(|(d, leaf)| Some((d, leaf.as_deref()?)))
            .flat_map(|(d, leaf)| {
                leaf.iter().enumerate().filter_map(move |(s, p)| {
                    let index = (d << LEAF_BITS | s) as u32;
                    Some((index, &p.as_deref()?[..]))
                })
            })
    }

    /// Materialises the page `index` with the given contents, replacing
    /// whatever was there. Returns `false` (without touching memory) if
    /// `index` is out of range or `bytes` is not exactly one page —
    /// checkpoint decoding treats that as corruption.
    pub fn install_page(&mut self, index: u32, bytes: &[u8]) -> bool {
        if index as usize >= N_PAGES || bytes.len() != PAGE_SIZE {
            return false;
        }
        self.page_mut(index << PAGE_SHIFT).copy_from_slice(bytes);
        true
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Reads `N` little-endian bytes starting at `addr` (which may cross a
    /// page boundary; the address space wraps modulo 2³²).
    ///
    /// The common within-page case resolves the page once; only accesses
    /// straddling a 4 KB boundary fall back to byte-at-a-time.
    pub fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let mut out = [0u8; N];
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                out.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
        }
        out
    }

    /// Writes `N` little-endian bytes starting at `addr`.
    pub fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Reads a 16-bit little-endian value.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a 16-bit little-endian value.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Reads a 32-bit little-endian value.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a 32-bit little-endian value.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Reads a 64-bit little-endian value.
    #[inline]
    pub fn read_u64(&self, addr: u32) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a 64-bit little-endian value.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, v: u64) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Reads an `f64` stored with [`SparseMemory::write_f64`].
    #[inline]
    pub fn read_f64(&self, addr: u32) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn write_f64(&mut self, addr: u32, v: f64) {
        self.write_u64(addr, v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use dda_stats::Rng;

    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_beec), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trips_all_widths() {
        let mut m = SparseMemory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        m.write_f64(48, -1.25);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_f64(48), -1.25);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(100, 0x0403_0201);
        assert_eq!(m.read_u8(100), 1);
        assert_eq!(m.read_u8(101), 2);
        assert_eq!(m.read_u8(102), 3);
        assert_eq!(m.read_u8(103), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let boundary = PAGE_SIZE as u32 - 2;
        m.write_u32(boundary, 0x1122_3344);
        assert_eq!(m.read_u32(boundary), 0x1122_3344);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn writes_are_isolated_per_address() {
        let mut m = SparseMemory::new();
        m.write_u32(0, 0xffff_ffff);
        m.write_u8(1, 0);
        assert_eq!(m.read_u32(0), 0xffff_00ff);
    }

    #[test]
    fn page_export_and_install_round_trip() {
        let mut m = SparseMemory::new();
        m.write_u32(0x1000, 0xdead_beef);
        m.write_u8(0x5000, 7);
        let pages: Vec<(u32, Vec<u8>)> = m
            .resident_page_bytes()
            .map(|(i, b)| (i, b.to_vec()))
            .collect();
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].0, 1);
        assert_eq!(pages[1].0, 5);
        let mut n = SparseMemory::new();
        for (i, b) in &pages {
            assert!(n.install_page(*i, b));
        }
        assert_eq!(n.read_u32(0x1000), 0xdead_beef);
        assert_eq!(n.read_u8(0x5000), 7);
        assert_eq!(n.resident_pages(), 2);
        // Corrupt installs are rejected without touching state.
        assert!(!n.install_page(0, &[0u8; 3]));
        assert!(!n.install_page(u32::MAX, &[0u8; PAGE_SIZE]));
        assert_eq!(n.resident_pages(), 2);
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let mut m = SparseMemory::new();
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        m.write_f64(8, weird);
        assert_eq!(m.read_f64(8).to_bits(), weird.to_bits());
    }

    #[test]
    fn leaf_and_wrap_around_boundaries() {
        let mut m = SparseMemory::new();
        // Pages 1023 and 1024 sit in different leaves.
        let leaf_edge = (LEAF_SLOTS << PAGE_SHIFT) as u32;
        m.write_u64(leaf_edge - 4, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(leaf_edge - 4), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u32(leaf_edge), 0x0102_0304);
        // The top of the address space wraps to address 0.
        m.write_u32(0xffff_fffe, 0xaabb_ccdd);
        assert_eq!(m.read_u32(0xffff_fffe), 0xaabb_ccdd);
        assert_eq!(m.read_u16(0), 0xaabb);
        let pages: Vec<u32> = m.resident_page_bytes().map(|(i, _)| i).collect();
        assert_eq!(
            pages,
            [0, LEAF_SLOTS as u32 - 1, LEAF_SLOTS as u32, 0xf_ffff]
        );
        assert_eq!(m.resident_pages(), 4);
    }

    /// Reference model for the differential test: a plain byte map
    /// (absent bytes read zero) plus the set of pages a write or install
    /// has materialised.
    #[derive(Clone, Default)]
    struct Model {
        bytes: BTreeMap<u32, u8>,
        pages: BTreeSet<u32>,
    }

    impl Model {
        fn write(&mut self, addr: u32, width: u32, v: u64) {
            for i in 0..width {
                let a = addr.wrapping_add(i);
                self.bytes.insert(a, (v >> (8 * i)) as u8);
                self.pages.insert(a >> PAGE_SHIFT);
            }
        }

        fn read(&self, addr: u32, width: u32) -> u64 {
            (0..width).fold(0, |v, i| {
                let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
                v | (b as u64) << (8 * i)
            })
        }
    }

    fn write(m: &mut SparseMemory, model: &mut Model, rng: &mut Rng, addr: u32, width: u32) {
        let v = rng.next_u64();
        match width {
            1 => m.write_u8(addr, v as u8),
            2 => m.write_u16(addr, v as u16),
            4 => m.write_u32(addr, v as u32),
            _ if rng.gen_bool(0.5) => m.write_u64(addr, v),
            _ => m.write_f64(addr, f64::from_bits(v)),
        }
        model.write(addr, width, v);
    }

    fn read(m: &SparseMemory, rng: &mut Rng, addr: u32, width: u32) -> u64 {
        match width {
            1 => m.read_u8(addr) as u64,
            2 => m.read_u16(addr) as u64,
            4 => m.read_u32(addr) as u64,
            _ if rng.gen_bool(0.5) => m.read_u64(addr),
            _ => m.read_f64(addr).to_bits(),
        }
    }

    /// Full comparison: resident count, ascending page export with the
    /// model's contents, and an `install_page` rebuild that reads back
    /// the same.
    fn assert_matches(m: &SparseMemory, model: &Model) {
        assert_eq!(m.resident_pages(), model.pages.len(), "resident pages");
        let exported: Vec<(u32, &[u8])> = m.resident_page_bytes().collect();
        let indices: Vec<u32> = exported.iter().map(|(i, _)| *i).collect();
        let expected: Vec<u32> = model.pages.iter().copied().collect();
        assert_eq!(indices, expected, "resident pages in ascending order");
        let mut rebuilt = SparseMemory::new();
        for (index, bytes) in &exported {
            let base = index << PAGE_SHIFT;
            let mut want = [0u8; PAGE_SIZE];
            for (&a, &b) in model.bytes.range(base..=base | (PAGE_SIZE as u32 - 1)) {
                want[(a - base) as usize] = b;
            }
            assert!(bytes[..] == want[..], "contents of page {index:#x}");
            assert!(rebuilt.install_page(*index, bytes));
        }
        assert_eq!(rebuilt.resident_pages(), m.resident_pages());
        assert!(rebuilt.resident_page_bytes().eq(m.resident_page_bytes()));
    }

    /// Page-aligned centres the random addresses cluster around: a leaf
    /// boundary (pages 1023/1024), the wrap-around at 0, the globals and
    /// the stack top of the workloads' layout.
    const CENTRES: [u32; 5] = [
        0x0000_1000,
        (LEAF_SLOTS << PAGE_SHIFT) as u32,
        0,
        0x1000_0000,
        0x7fff_0000,
    ];

    fn random_addr(rng: &mut Rng) -> u32 {
        if rng.gen_range(0u32..16) == 0 {
            return rng.next_u32();
        }
        let centre = CENTRES[rng.gen_range(0..CENTRES.len())];
        let spread = if rng.gen_bool(0.5) { 12 } else { 5000 };
        centre.wrapping_add(rng.gen_range(-spread..spread) as u32)
    }

    fn random_width(rng: &mut Rng) -> u32 {
        [1, 2, 4, 8][rng.gen_range(0usize..4)]
    }

    /// Random writes, reads and page installs, checked step by step
    /// against the byte map.
    fn mutate(m: &mut SparseMemory, model: &mut Model, rng: &mut Rng, ops: usize) {
        for _ in 0..ops {
            let addr = random_addr(rng);
            let width = random_width(rng);
            match rng.gen_range(0u32..40) {
                0..=18 => write(m, model, rng, addr, width),
                19..=37 => {
                    let got = read(m, rng, addr, width);
                    assert_eq!(got, model.read(addr, width), "read {width} at {addr:#x}");
                }
                38 => {
                    let index = addr >> PAGE_SHIFT;
                    let page: Vec<u8> = (0..PAGE_SIZE).map(|_| rng.next_u32() as u8).collect();
                    assert!(m.install_page(index, &page));
                    for (off, &b) in page.iter().enumerate() {
                        model.write(index << PAGE_SHIFT | off as u32, 1, b as u64);
                    }
                }
                _ => {
                    assert!(!m.install_page(N_PAGES as u32, &[0; PAGE_SIZE]));
                    assert!(!m.install_page(addr >> PAGE_SHIFT, &[0; 8]));
                }
            }
        }
    }

    #[test]
    fn differential_against_a_byte_map() {
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(0x5AA5_0000 | seed);
            let mut m = SparseMemory::new();
            let mut model = Model::default();
            mutate(&mut m, &mut model, &mut rng, 400);
            assert_matches(&m, &model);

            // A clone starts equal; from then on writes to either side
            // never show in the other.
            let mut c = m.clone();
            let mut c_model = model.clone();
            assert_matches(&c, &c_model);
            mutate(&mut c, &mut c_model, &mut rng, 300);
            assert_matches(&m, &model);
            mutate(&mut m, &mut model, &mut rng, 300);
            assert_matches(&c, &c_model);
            assert_matches(&m, &model);
        }
    }
}
