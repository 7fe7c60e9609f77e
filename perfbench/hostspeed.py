"""Host-speed calibration.

The reference machine is a 2-vCPU share of a busy host whose speed moves
between two modes about 1.7x apart, for seconds to minutes at a time. A
fixed kernel of the benchmark's own, the same kinds of calls lftdom makes
(validation in Python, SVD, inverse and solve on 2x2 to 8x8 complex
matrices, a little JSON), is timed before and after every block; the
block's times are scaled by REFERENCE_S over the kernel's mean time around
it. The kernel never calls lftdom, so a change to the program leaves the
scale alone and shows in full.
"""

import json
import time

import numpy as np

REFERENCE_S = 3.2e-4    # the kernel's time on the reference machine at its fast speed
SAMPLES = 5             # fewest kernel runs in one calibration
SHARE = 0.02            # calibration time as a share of the nominal block time


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = [rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)) + 3 * np.eye(n)
                     for n in (2, 2, 3, 4, 4, 8)]
        for _ in range(50):
            self.sample()

    def _kernel(self):
        acc = 0.0
        for a in self.mats:
            z = np.asarray(a, dtype=complex)
            if not np.isfinite(z).all():
                raise ValueError("calibration matrix is not finite")
            s = np.linalg.svd(z, compute_uv=False)
            x = np.linalg.inv(z)
            y = np.linalg.solve(z, x @ z + z)
            acc += s[0] + abs(y[0, 0]) + len(json.dumps({"re": z.real.tolist()}))
        return acc

    def sample(self, block_s=0.0):
        """Median kernel time, in seconds, over at least SAMPLES runs and
        SHARE of a block of block_s seconds."""
        times = []
        end = time.perf_counter() + SHARE * block_s
        while len(times) < SAMPLES or time.perf_counter() < end:
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return sorted(times)[len(times) // 2]

    @staticmethod
    def scale(before, after):
        """Factor taking a time measured between two samples to the reference speed."""
        return REFERENCE_S / (0.5 * (before + after))
