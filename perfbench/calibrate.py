"""A fixed reference job: how fast the host runs the program's kinds of work
at this moment.

    python3 perfbench/calibrate.py SCRATCH_FILE

The benchmark runs it as a fresh process after every pass, as it runs each
command of the program, and reports the pass time in multiples of it.  It
pays the same start-up (interpreter and numpy import) and then does a fixed
mix of the work the commands do: floats formatted into a CSV file and
parsed back, gathers and reductions over small numpy arrays, and
big-integer and log-gamma arithmetic.  It uses nothing of the program, so a
change to the program cannot move it.
"""

import math
import sys

import numpy as np


def main(path):
    rng = np.random.default_rng(0)
    n = 2_000
    x = rng.random(n)

    with open(path, "w", encoding="utf-8") as fh:
        for t in range(15):
            fh.write("".join(f"{t},{i},{v!r}\n" for i, v in enumerate(x.tolist())))
    total = 0.0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            total += float(line.rsplit(",", 1)[1])

    indices = rng.integers(0, n, 4 * n)
    indptr = np.arange(0, 4 * n, 4)
    for _ in range(400):
        x = 0.5 * x + 0.1 * np.add.reduceat(x[indices], indptr)
        x /= np.linalg.norm(x)

    bits = math.factorial(12_000).bit_length()
    logs = sum(math.lgamma(k + 1.0) for k in range(50_000))

    if not (math.isfinite(total) and math.isfinite(float(x.sum())) and bits > 0 and logs > 0):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
