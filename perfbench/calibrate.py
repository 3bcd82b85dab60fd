"""A fixed reference job that measures how fast the host runs right now.

On the stability-lab workload, perfbench/run.py runs this script
in a fresh process after every timed command, on the same CPU, and scales
the run's times by run.CAL_REF_S / (median time of the run's calibrations).
On a shared host the speed of one vCPU changes by up to 1.6x for seconds to
minutes as other tenants load it; a scaled time changes much less.

The job resembles a graphstab command in miniature: interpreter start and
numpy import, a loop of small matrix-vector products, a few dense matrix
products and a pure-Python loop. It uses numpy only, so no change to the
program under test can change it. Run `python3 perfbench/calibrate.py`.
"""

import numpy as np


def job() -> float:
    rng = np.random.default_rng(0)
    A = rng.standard_normal((100, 100))
    x = np.ones(100)
    for _ in range(2000):
        x = A @ x
        x /= np.abs(x).max()
    B = rng.standard_normal((500, 500))
    for _ in range(3):
        B = B @ B
        B /= np.abs(B).max()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return float(x[0] + B[0, 0]) + s


if __name__ == "__main__":
    job()
