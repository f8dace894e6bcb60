"""GPU device descriptors for the three generations the paper evaluates.

The paper (Section II-C, footnotes 1-3) runs on:

* **Kepler**  -- Tesla K80 (single GK210 GPU of the dual-GPU board),
  CUDA 7.0.27, driver 346.46
* **Maxwell** -- Tesla M40 (GM200), CUDA 8.0.27, driver 361.72
* **Pascal**  -- GeForce GTX 1080 (GP104), CUDA 8.0.23, driver 367.35

:class:`GPUSpec` captures the architectural parameters the matching
algorithms and the timing model need: SM count, warp scheduler count,
clock, occupancy limits, and memory latencies.  Published microbenchmark
latencies are used where available; the remaining free parameters are the
per-generation, per-algorithm-family ``calibration`` multipliers that
anchor the simulated matching rates to the paper's measured rates
(matrix: ~3 / ~3.5 / ~6 Mmatches/s at one CTA, Figure 4; hash: 110 / ~190
(est.) / ~368 (est., so that the 32-CTA aggregate lands on the stated
500) Mmatches/s, Figure 6(b)).  Everything else -- scaling across queue
lengths, queue counts, CTA counts, match fractions -- follows from the
instruction/transaction counts of the simulated algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["GPUSpec", "GPU", "KEPLER_K80", "MAXWELL_M40", "PASCAL_GTX1080"]


@dataclass(frozen=True)
class GPUSpec:
    """Architectural description of one GPU.

    Attributes
    ----------
    name, generation:
        Marketing name and architecture family (``"kepler"`` etc.).
    sm_count:
        Streaming multiprocessors on the device.  The paper pins the
        communication kernel to a *single* SM (Section II-C); benchmarks
        honour that unless told otherwise.
    cores_per_sm:
        CUDA cores per SM (192 Kepler SMX, 128 Maxwell/Pascal).
    clock_mhz:
        Sustained boost clock used for rate conversion.
    schedulers_per_sm:
        Warp schedulers per SM; bounds warp-instruction issue per cycle.
    max_warps_per_sm, max_ctas_per_sm, max_threads_per_cta:
        Occupancy limits.
    shared_mem_per_sm, shared_mem_per_cta:
        Shared memory capacities in bytes.
    registers_per_sm:
        32-bit registers per SM.
    smem_latency, gmem_latency:
        Load-to-use latencies in cycles (microbenchmark values from the
        literature for each generation).
    issue_cycles:
        Cycles a scheduler is occupied per issued warp instruction, by
        instruction class.
    calibration:
        Per-algorithm-family multiplicative fudge on predicted cycles
        (keys: ``"default"``, ``"hash"``); anchors absolute rates to the
        paper's hardware measurements.  See ``repro.bench.calibration``
        for the anchor table and derivation.
    cta_contention:
        Slowdown each additional co-resident CTA inflicts on its
        neighbours (shared memory pipeline / atomic unit pressure); drives
        the 32-CTA vs 1-CTA hash-throughput ratio of Figure 6(b).
    sanitize:
        Optional :class:`~repro.simt.sanitize.Sanitizer` default for
        launches and schedulers targeting this spec (``spec.with_(
        sanitize=Sanitizer())`` instruments every kernel that does not
        pass its own handle).  Excluded from equality and repr; the
        shipped singletons carry ``None``.
    """

    name: str
    generation: str
    sm_count: int
    cores_per_sm: int
    clock_mhz: float
    schedulers_per_sm: int
    max_warps_per_sm: int
    max_ctas_per_sm: int
    max_threads_per_cta: int
    shared_mem_per_sm: int
    shared_mem_per_cta: int
    registers_per_sm: int
    mem_bandwidth_gbs: float
    smem_latency: float
    gmem_latency: float
    issue_cycles: dict = field(default_factory=dict)
    calibration: dict = field(default_factory=dict)
    cta_contention: float = 0.47
    sanitize: "object | None" = field(default=None, compare=False,
                                      repr=False)

    @property
    def clock_hz(self) -> float:
        """Clock in Hz."""
        return self.clock_mhz * 1e6

    @property
    def warp_size(self) -> int:
        """Threads per warp (32 on every simulated generation)."""
        return 32

    def issue_cost(self, kind: str) -> float:
        """Scheduler occupancy in cycles for one warp instruction of ``kind``."""
        return self.issue_cycles.get(kind, 1.0)

    def calibration_for(self, family: str) -> float:
        """Cycle multiplier anchoring the named algorithm family."""
        return self.calibration.get(family,
                                    self.calibration.get("default", 1.0))

    def with_(self, **kwargs) -> "GPUSpec":
        """Return a copy with selected fields replaced (for ablations)."""
        return replace(self, **kwargs)

    def trace_metadata(self) -> dict:
        """Device descriptors for a trace export's ``otherData`` block."""
        return {
            "device": self.name,
            "generation": self.generation,
            "sm_count": self.sm_count,
            "clock_mhz": self.clock_mhz,
            "mem_bandwidth_gbs": self.mem_bandwidth_gbs,
        }


#: Default per-class issue costs (cycles of scheduler occupancy).  Special
#: function / sync-heavy operations occupy the scheduler longer than plain
#: integer ALU instructions.
_DEFAULT_ISSUE = {
    "alu": 1.0,
    "branch": 1.0,
    "ballot": 2.0,
    "vote": 2.0,
    "shfl": 2.0,
    "smem_load": 1.0,
    "smem_store": 1.0,
    "gmem_load": 1.0,
    "gmem_store": 1.0,
    "atomic": 4.0,
    "sync": 8.0,
}


KEPLER_K80 = GPUSpec(
    name="Tesla K80",
    generation="kepler",
    sm_count=13,
    cores_per_sm=192,
    clock_mhz=875.0,  # GK210 autoboost clock
    schedulers_per_sm=4,
    max_warps_per_sm=64,
    max_ctas_per_sm=16,
    max_threads_per_cta=1024,
    shared_mem_per_sm=112 * 1024,  # GK210 doubled shared/L1
    shared_mem_per_cta=48 * 1024,
    registers_per_sm=128 * 1024,
    mem_bandwidth_gbs=240.0,
    smem_latency=48.0,
    gmem_latency=230.0,
    issue_cycles=dict(_DEFAULT_ISSUE),
    # Anchors: 3.0 Mmatches/s matrix steady region (Fig. 4, <=512
    # entries), 110 Mmatches/s hash @1 CTA
    # (Section VI-C).
    calibration={"default": 3.8954, "hash": 0.8291, "compaction": 1.0},
)

MAXWELL_M40 = GPUSpec(
    name="Tesla M40",
    generation="maxwell",
    sm_count=24,
    cores_per_sm=128,
    clock_mhz=1114.0,
    schedulers_per_sm=4,
    max_warps_per_sm=64,
    max_ctas_per_sm=32,
    max_threads_per_cta=1024,
    shared_mem_per_sm=96 * 1024,
    shared_mem_per_cta=48 * 1024,
    registers_per_sm=64 * 1024,
    mem_bandwidth_gbs=288.0,
    smem_latency=24.0,
    gmem_latency=368.0,  # Maxwell's global latency regressed vs Kepler
    issue_cycles=dict(_DEFAULT_ISSUE),
    # Anchors: 3.5 Mmatches/s matrix (Fig. 4); the paper gives no Maxwell
    # hash number in the text -- 190 Mmatches/s @1 CTA interpolates
    # between the stated Kepler and Pascal rates (estimated).
    calibration={"default": 7.8395, "hash": 0.4896, "compaction": 1.0},
)

PASCAL_GTX1080 = GPUSpec(
    name="GeForce GTX 1080",
    generation="pascal",
    sm_count=20,
    cores_per_sm=128,
    clock_mhz=1733.0,
    schedulers_per_sm=4,
    max_warps_per_sm=64,
    max_ctas_per_sm=32,
    max_threads_per_cta=1024,
    shared_mem_per_sm=96 * 1024,
    shared_mem_per_cta=48 * 1024,
    registers_per_sm=64 * 1024,
    mem_bandwidth_gbs=320.0,
    smem_latency=24.0,
    gmem_latency=280.0,
    issue_cycles=dict(_DEFAULT_ISSUE),
    # Anchors: 6.0 Mmatches/s matrix (Fig. 4); 368 Mmatches/s hash @1 CTA
    # so the 32-CTA aggregate hits the stated ~500 Mmatches/s.
    calibration={"default": 7.3122, "hash": 0.4503, "compaction": 1.0},
)


class GPU:
    """Convenience factory namespace mirroring the paper's three testbeds.

    >>> GPU.pascal_gtx1080().generation
    'pascal'
    """

    @staticmethod
    def kepler_k80() -> GPUSpec:
        """The paper's Kepler testbed (single GPU of a Tesla K80)."""
        return KEPLER_K80

    @staticmethod
    def maxwell_m40() -> GPUSpec:
        """The paper's Maxwell testbed (Tesla M40)."""
        return MAXWELL_M40

    @staticmethod
    def pascal_gtx1080() -> GPUSpec:
        """The paper's Pascal testbed (GeForce GTX 1080)."""
        return PASCAL_GTX1080

    @staticmethod
    def all_generations() -> list[GPUSpec]:
        """The three generations of Figure 4 / Figure 6(b), oldest first."""
        return [KEPLER_K80, MAXWELL_M40, PASCAL_GTX1080]

    @staticmethod
    def by_name(name: str) -> GPUSpec:
        """Look a spec up by generation or (partial) product name."""
        needle = name.strip().lower()
        for spec in GPU.all_generations():
            if needle in (spec.generation, spec.name.lower()):
                return spec
        for spec in GPU.all_generations():
            if needle in spec.name.lower():
                return spec
        raise KeyError(f"unknown GPU {name!r}")
