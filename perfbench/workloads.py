"""The benchmark's workloads: what each feeds `codeclab evaluate`, and the work
its report stands for, counted from the config alone."""
from __future__ import annotations

import dataclasses

# The external workload's codec: `cp` as encoder and as decoder, so every
# stage is the identity and the "bitstream" is the PNM file itself.
IDENTITY_SPEC = {
    "encode_cmd": "cp {input} {output}",
    "decode_cmd": "cp {input} {output}",
    "quality_map": ["1", "2", "3", "4"],
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    codec: str
    codec_options: dict
    levels: int  # ladder size, known from the codec id or spec
    k_list: tuple[int, ...]
    b: int
    q_min_list: tuple[int, ...] | None = None  # None: every level
    # whether every theorem-1 record must read satisfied; otherwise only
    # the one-stage (k = 1) cells must, where the chain is the single pass
    theorem1_holds: bool = True
    channels: int = 0  # 0: the synthetic uniform source, no image corpus
    count: int = 0
    width: int = 0
    height: int = 0
    probe_reps: int = 1  # repeats of the host-speed probe after each round (probe.py)
    probe_fault_mb: int = 0  # fresh memory the block-DCT probe touches per repeat
    # the probe's CPU seconds at the reference speed (README.md): stages_per_s
    # is the throughput the round would have had with the probe taking this long
    probe_ref_s: float = 0.0

    @property
    def q_mins(self) -> tuple[int, ...]:
        return self.q_min_list or tuple(range(1, self.levels + 1))

    @property
    def items(self) -> int:
        return self.count if self.channels else 1

    def config(self, dataset: str | None, seed: int) -> dict:
        cfg = {
            "codec": self.codec,
            "codec_options": self.codec_options,
            "k_list": list(self.k_list),
            "b": self.b,
            "mode": "forced-min",
            "distortion": "MSE",
            "master_seed": seed,
        }
        if self.q_min_list:
            cfg["q_min_list"] = list(self.q_min_list)
        if dataset is not None:
            cfg["dataset"] = dataset
        return cfg

    def nominal_stages(self) -> int:
        """Codec stages the report needs: per cell one single pass and b chains
        of k stages per item; one single-pass RD sweep; and the RD chains."""
        n, b, levels = self.items, self.b, self.levels
        cells = sum(n * (1 + b * k) for _ in self.q_mins for k in self.k_list)
        return cells + levels * n + sum(levels * n * b * k for k in self.k_list)

    def rates_read(self) -> int:
        """bpp values that reach the report: the single-pass sweep, and the
        final stage of every RD chain."""
        return self.levels * self.items * (1 + self.b * len(self.k_list))

    def operations(self) -> int:
        """Checked operations per report: grid cells plus RD points."""
        return len(self.q_mins) * len(self.k_list) + self.levels * (1 + len(self.k_list))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dct-chains", "block-dct", {}, levels=8, k_list=(50,), b=2,
                 q_min_list=(2, 5), channels=1, count=1, width=64, height=64,
                 probe_reps=120, probe_ref_s=0.4),
        Workload("dct-large-rgb", "block-dct", {}, levels=8, k_list=(1, 2), b=1,
                 theorem1_holds=False, channels=3, count=1, width=512, height=384,
                 probe_reps=4, probe_fault_mb=64, probe_ref_s=1.2),
        Workload("scalar-nested", "nested-scalar:4", {"source_n": 100_000}, levels=4,
                 k_list=(6,), b=2, probe_reps=45, probe_ref_s=0.15),
        Workload("external-identity", "external", {"spec": IDENTITY_SPEC}, levels=4,
                 k_list=(3,), b=2, channels=1, count=2, width=64, height=64,
                 probe_reps=30, probe_ref_s=0.125),
    )
}
