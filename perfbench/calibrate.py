"""A fixed calibration kernel that measures how fast the machine runs right now.

On the shared 2-core machines this benchmark was built on, the same code
runs in two speed states that last from seconds to tens of seconds: the
slow state takes about 1.6 times as long for Python-bound code and about
1.35 times as long for BLAS-bound code.  The share of a run spent in each
state differs from run to run, so raw wall-clock medians of 20-second runs
spread by 15 to 30 % between back-to-back processes.

The kernel does a fixed amount of work that does not touch condchan: small
numpy calls (the Python-overhead profile of the 2x2 and 3x3 workloads), two
128x128 complex matmuls and one 64x64 eigh (the dense profile), and one
JSON decode (the document profile).  The benchmark times it between ops and
scales each op's wall time by ``REFERENCE_S / kernel time``, so its timings
read as wall time on a machine where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Kernel time in the fast state of a 2-vCPU Intel Xeon (KVM) machine with
# numpy 2.4 and one OpenBLAS thread.  Only the ratio between runs matters;
# the constant just keeps normalized values close to uncontended wall time.
REFERENCE_S = 3.6e-3


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self.small = small
        self.small_herm = small + small.conj().T
        dense = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.dense = dense
        herm = dense[:64, :64]
        self.dense_herm = herm + herm.conj().T
        doc = [[[float(x), float(-x)] for x in row] for row in rng.standard_normal((24, 24))]
        self.doc = json.dumps(doc)
        # Bound now so that the tracer's eig counter never sees the kernel.
        self.eigvalsh, self.eigh = np.linalg.eigvalsh, np.linalg.eigh
        self.sample()
        self.sample()

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = time.perf_counter()
        m, h = self.small, self.small_herm
        for _ in range(50):
            self.eigvalsh(h)
            np.kron(m, m)
            float(np.max(np.abs(m - m.T)))
        d = self.dense
        for _ in range(2):
            d @ d
        self.eigh(self.dense_herm)
        json.loads(self.doc)
        return time.perf_counter() - t0

    def scale(self, repeats: int = 3) -> float:
        """Factor that converts wall time measured now to reference time."""
        return REFERENCE_S / statistics.median(self.sample() for _ in range(repeats))
