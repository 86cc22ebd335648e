"""The benchmark's workloads: which urnsa command each one runs.

Why each workload is there is recorded in BENCHMARK.json and README.md.
Sizes are fixed; the seed only changes the random stream (urnsa --seed).
"""
from __future__ import annotations

from dataclasses import dataclass

from exact import Urn

DEFAULT_SEED = 20110221


@dataclass(frozen=True)
class Workload:
    name: str
    paths: int
    horizon: int
    urn: Urn | None = None
    big_gamma: float = 0.0
    sigma2: float = 0.0
    # expected scaling exponents of the scaled statistic (urns)
    scaling: tuple[float, float] = (0.0, 0.0)
    # exact moments are compared at checkpoints up to this index
    oracle_max_n: int = 0
    # which exact moments are compared there
    oracle_moments: tuple[str, ...] = ("mean", "variance")
    # prediction.predicted_variance the JSON must carry (None: not a CLT)
    predicted_variance: float | None = None

    @property
    def path_steps(self) -> int:
        return self.paths * self.horizon

    def argv(self, seed: int, out_prefix: str) -> list[str]:
        sizes = [
            "--paths", str(self.paths),
            "--horizon", str(self.horizon),
            "--seed", str(seed),
            "--out", out_prefix,
        ]
        if self.urn is None:
            return [
                "synthetic",
                "--gamma", f"{self.big_gamma:g}",
                "--sigma2", f"{self.sigma2:g}",
                *sizes,
            ]
        u = self.urn
        matrix = ",".join(f"{v:g}" for v in (u.a, u.b, u.c, u.d))
        return [
            "simulate", "-m", matrix,
            "--w0", f"{u.w0:g}", "--b0", f"{u.b0:g}",
            *sizes,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="urn-wide",
            urn=Urn(4.0, 5.0, 3.0, 2.0, 1.0, 1.0),
            paths=20_000,
            horizon=5_000,
            scaling=(0.5, 0.0),
            oracle_max_n=5_000,
            predicted_variance=1.0 / 252.0,
        ),
        Workload(
            name="urn-narrow",
            urn=Urn(3.0, 0.0, 2.0, 5.0, 4.0, 4.0),
            paths=500,
            horizon=1 << 15,
            scaling=(0.4, 0.0),
            oracle_max_n=4_096,
            # the law's tail is heavy (kurtosis near 30 at n = 4096), so the
            # 500-path sample variance is too skewed for a z bound
            oracle_moments=("mean",),
        ),
        Workload(
            name="synthetic-wide",
            big_gamma=1.0,
            sigma2=1.0,
            paths=20_000,
            horizon=4_096,
            oracle_max_n=4_096,
            predicted_variance=0.5,
        ),
    )
}
