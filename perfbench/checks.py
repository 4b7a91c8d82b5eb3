"""Independent references and output checks for the benchmark.

Nothing here calls the solver, the simulator or the CSV readers of the
program under test: the spectral radius reference is this file's own
Lanczos iteration, the counting references are recomputed with ``math``.
The one exception the benchmark asks for is the connected-graph table,
which is compared against ``enumeration.connected_labeled_riordan``, a
different route from the Harary recurrence the ``enum`` command uses.

Every check returns ``(ok, message, info)``; ``info`` carries measured
side values (``sigma_abs_err``, ``trajectory_csv_mb``) for the trace.  The
edge-list and params readers and writers here are the benchmark's own, so
the reference never goes through the program's parsers.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys

import numpy as np

SIGMA_ATOL = 1e-8
LOG_RTOL = 1e-9


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int<->str digit cap while this process parses huge counts,
    and put it back: the program run in-process must keep the default cap."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------- graphs

def read_edge_file(path):
    """Vertex count and an (m, 2) int array from an edge-list file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip() and not ln.startswith("#")]
    n = int(lines[0])
    if len(lines) == 1:
        return n, np.zeros((0, 2), dtype=np.int64)
    edges = np.array(" ".join(lines[1:]).split(), dtype=np.int64).reshape(-1, 2)
    return n, edges


def write_edge_file(path, n, edges):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        fh.write("".join(f"{a} {b}\n" for a, b in edges.tolist()))


def write_params_file(path, mu, beta, r):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,mu,beta,r\n")
        fh.write("".join(
            f"{i},{m!r},{b!r},{c!r}\n"
            for i, (m, b, c) in enumerate(zip(mu.tolist(), beta.tolist(), r.tolist()))
        ))


def read_csv_table(path, header):
    """Data rows (lists of strings) of a CSV with ``#`` comments and the
    given header line; raises ValueError on a different header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]!r}")
    return [ln.split(",") for ln in lines[1:] if ln]


def lanczos_sigma(n, src, dst, mu, w, tol=1e-12, max_steps=800):
    """Largest eigenvalue of S = I - diag(mu) + W^1/2 A W^1/2, which is
    similar to H = I - diag(mu) + W A and nonnegative, so it equals the
    spectral radius sigma(H).  Lanczos with full reorthogonalisation from
    the positive vector (it overlaps the positive Perron vector).

    Returns (sigma, residual, steps).  The residual ||S y - sigma y|| of the
    unit Ritz vector y certifies an eigenvalue within it of sigma, and a
    Ritz value never exceeds the largest eigenvalue.
    """
    s = np.sqrt(w)
    d = 1.0 - mu

    def matvec(x):
        t = s * x
        return d * x + s * np.bincount(src, weights=t[dst], minlength=n)

    basis = np.empty((min(max_steps, n) + 1, n))
    basis[0] = 1.0 / math.sqrt(n)
    alpha, beta = [], []
    theta, z = None, None
    for k in range(min(max_steps, n)):
        q = matvec(basis[k])
        alpha.append(float(basis[k] @ q))
        for _ in range(2):
            q -= basis[: k + 1].T @ (basis[: k + 1] @ q)
        b = float(np.linalg.norm(q))
        last = k + 1 == min(max_steps, n)
        if (k + 1) % 10 == 0 or b < 1e-13 or last:
            t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            ev, evec = np.linalg.eigh(t)
            theta, z = float(ev[-1]), evec[:, -1]
            if b * abs(z[-1]) < tol or b < 1e-13 or last:
                break
        beta.append(b)
        basis[k + 1] = q / b
    y = basis[: len(alpha)].T @ z
    y /= np.linalg.norm(y)
    residual = float(np.linalg.norm(matvec(y) - theta * y))
    return theta, residual, len(alpha)


class GraphReference:
    """What the three graph commands must print for one instance.

    ``sigma_method`` is ``"lanczos"`` (heterogeneous parameters) or
    ``"regular"`` (the analytic 1 - mu + beta r deg of a regular graph with
    homogeneous parameters)."""

    def __init__(self, n, edges, mu, beta, r, kappa, sigma_method):
        self.n, self.num_edges = n, len(edges)
        self.mu, self.beta, self.r, self.kappa = mu, beta, r, kappa
        self.src = np.concatenate([edges[:, 0], edges[:, 1]])
        self.dst = np.concatenate([edges[:, 1], edges[:, 0]])
        self.deg = np.bincount(self.src, minlength=n).astype(float)
        margins = mu - beta * r * self.deg
        self.flagged = np.nonzero(margins <= 0.0)[0]
        self.tuned_beta = beta.copy()
        self.tuned_beta[self.flagged] = kappa * mu[self.flagged] / (
            r[self.flagged] * self.deg[self.flagged]
        )
        if sigma_method == "regular":
            self.sigma_raw = _regular_sigma(self.deg, mu, beta * r)
            self.sigma_tuned = _regular_sigma(self.deg, mu, self.tuned_beta * r)
            self.lanczos = None
        else:
            raw = lanczos_sigma(n, self.src, self.dst, mu, beta * r)
            tuned = lanczos_sigma(n, self.src, self.dst, mu, self.tuned_beta * r)
            for sigma, residual, _ in (raw, tuned):
                if residual > 1e-9:
                    raise RuntimeError(f"reference sigma {sigma} not certified: residual {residual}")
            self.sigma_raw, self.sigma_tuned = raw[0], tuned[0]
            self.lanczos = {"raw_steps": raw[2], "raw_residual": raw[1],
                            "tuned_steps": tuned[2], "tuned_residual": tuned[1]}

    def check_analyze(self, stdout_path, report_csv):
        with open(stdout_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        err = abs(payload["sigma"] - self.sigma_raw)
        info = {"sigma_abs_err": err}
        if err > SIGMA_ATOL:
            return False, f"analyze sigma {payload['sigma']!r} vs reference {self.sigma_raw!r}", info
        if payload["verdict"] != "unstable":
            return False, f"analyze verdict {payload['verdict']!r}, expected 'unstable'", info
        if (payload["n"], payload["num_edges"]) != (self.n, self.num_edges):
            return False, "analyze reports the wrong graph size", info
        if payload["flagged"] != self.flagged.tolist():
            return False, "analyze flagged set differs from the Gerschgorin reference", info
        rows = read_csv_table(report_csv, "node,degree,mu,beta,r,margin,flagged")
        if len(rows) != self.n or sum(int(row[6]) for row in rows) != self.flagged.size:
            return False, "selection report CSV has the wrong rows or flags", info
        return True, "", info

    def check_control(self, stdout_path, tuned_csv, plan_csv):
        with open(stdout_path, "r", encoding="utf-8") as fh:
            line = fh.read().strip().splitlines()[-1]
        fields = dict(tok.split("=", 1) for tok in line.split())
        err = abs(float(fields["sigma"]) - self.sigma_tuned)
        info = {"sigma_abs_err": err}
        if err > SIGMA_ATOL:
            return False, f"control sigma {fields['sigma']} vs reference {self.sigma_tuned!r}", info
        if fields["stable"] != "true" or int(fields["tuned"]) != self.flagged.size:
            return False, f"control summary {line!r} is not stable=true with every flagged node tuned", info
        rows = read_csv_table(tuned_csv, "node,mu,beta,r")
        table = np.array(rows, dtype=float)
        if len(rows) != self.n or not np.array_equal(table[:, 0], np.arange(self.n)):
            return False, "tuned params do not list nodes 0..n-1", info
        if not (np.array_equal(table[:, 1], self.mu) and np.array_equal(table[:, 3], self.r)):
            return False, "control changed mu or r", info
        beta_new = table[:, 2]
        untouched = np.ones(self.n, dtype=bool)
        untouched[self.flagged] = False
        if not np.array_equal(beta_new[untouched], self.beta[untouched]):
            return False, "control changed beta on an unflagged node", info
        f = self.flagged
        lhs = beta_new[f] * self.r[f] * self.deg[f]
        if not np.allclose(lhs, self.kappa * self.mu[f], rtol=1e-12, atol=0.0):
            return False, "a tuned node misses beta' r deg = kappa mu", info
        plan = read_csv_table(plan_csv, "node,beta_old,beta_new")
        if [int(row[0]) for row in plan] != f.tolist():
            return False, "control plan does not list exactly the flagged nodes", info
        return True, "", info

    def check_simulate(self, stdout_path, trajectory_csv):
        with open(stdout_path, "r", encoding="utf-8") as fh:
            verdict, steps, sigma = fh.read().strip().splitlines()[-1].split(",")
        err = abs(float(sigma) - self.sigma_tuned)
        info = {"sigma_abs_err": err,
                "trajectory_csv_mb": os.path.getsize(trajectory_csv) / 1e6}
        if err > SIGMA_ATOL:
            return False, f"simulate sigma {sigma} vs reference {self.sigma_tuned!r}", info
        if verdict != "extinct":
            return False, f"simulate verdict {verdict!r}, expected 'extinct'", info
        rows = _count_data_rows(trajectory_csv, b"t,node,p\n")
        if rows != (int(steps) + 1) * self.n:
            return False, f"trajectory has {rows} rows, expected (steps+1)*n", info
        return True, "", info


def _regular_sigma(deg, mu, w):
    if not (np.all(deg == deg[0]) and np.all(mu == mu[0]) and np.all(w == w[0])):
        raise ValueError("the analytic sigma needs a regular graph with homogeneous parameters")
    return float(1.0 - mu[0] + w[0] * deg[0])


def _count_data_rows(path, header):
    """Lines after the header, skipping ``#`` comment lines before it."""
    count, seen_header, tail = 0, False, b""
    with open(path, "rb") as fh:
        while not seen_header:
            line = fh.readline()
            if not line:
                return 0
            seen_header = line == header
        while chunk := fh.read(1 << 24):
            count += chunk.count(b"\n")
            tail = chunk[-1:]
    return count + (1 if tail and tail != b"\n" else 0)


# ----------------------------------------------------------- enumeration

class EnumReference:
    """Counting references; the connected table is filled lazily."""

    def __init__(self, pmax):
        self.connected = []
        self.extend_connected(pmax)

    def extend_connected(self, pmax):
        from netquench.enumeration import connected_labeled_riordan

        for p in range(len(self.connected) + 1, pmax + 1):
            self.connected.append(connected_labeled_riordan(p))

    def check_connected(self, stdout_path, pmax):
        self.extend_connected(pmax)
        with unlimited_int_digits():
            rows = read_csv_table(stdout_path, "p,C_p")
            got = [(int(p), int(c)) for p, c in rows]
        want = list(enumerate(self.connected[:pmax], start=1))
        if got != want:
            return False, f"connected table (pmax {pmax}) differs from the Riordan route", {}
        return True, "", {}


def ln_pairing_count(n, d):
    """ln of exp(-(d^2-1)/4) (2m)! / (m! 2^m (d!)^n), m = n d / 2, via lgamma."""
    m = n * d // 2
    return (-(d * d - 1) / 4.0 + math.lgamma(2 * m + 1) - math.lgamma(m + 1)
            - m * math.log(2.0) - n * math.lgamma(d + 1))


def _close(value, ref):
    return abs(value - ref) <= LOG_RTOL * max(1.0, abs(ref))


def check_rarity(stdout_path, r, nmax):
    rows = read_csv_table(stdout_path, "n,ln_L,ln_G,ln_ratio")
    orders = [n for n in range(r + 1, nmax + 1) if (n * r) % 2 == 0]
    if [int(row[0]) for row in rows] != orders:
        return False, "rarity sweep lists the wrong orders", {}
    for (n, ln_l, ln_g, ratio), order in zip(rows, orders):
        ref_l = ln_pairing_count(order, r)
        ref_g = math.comb(order, 2) * math.log(2.0)
        if not (_close(float(ln_l), ref_l) and _close(float(ln_g), ref_g)
                and _close(float(ratio), ref_l - ref_g)):
            return False, f"rarity row n={n} differs from the lgamma recomputation", {}
    return True, "", {}


def check_regular_asym(stdout_path, degree, nmax):
    rows = read_csv_table(stdout_path, "n,ln_labeled,ln_unlabeled")
    orders = [n for n in range(degree + 1, nmax + 1) if (n * degree) % 2 == 0]
    if [int(row[0]) for row in rows] != orders:
        return False, "regular-asym sweep lists the wrong orders", {}
    for (n, ln_l, ln_u), order in zip(rows, orders):
        ref_l = ln_pairing_count(order, degree)
        ok = _close(float(ln_l), ref_l)
        if degree >= 3:
            ok = ok and _close(float(ln_u), ref_l - math.lgamma(order + 1))
        if not ok:
            return False, f"regular-asym row n={n} differs from the lgamma recomputation", {}
    return True, "", {}


def check_catalan(stdout_path, nmax):
    with unlimited_int_digits():
        rows = read_csv_table(stdout_path, "n,f_n,ln_asymptotic,ratio")
        if [int(row[0]) for row in rows] != list(range(2, nmax + 1)):
            return False, "Catalan sweep lists the wrong orders", {}
        for n_s, f_s, asym_s, ratio_s in rows:
            n = int(n_s)
            exact = math.comb(2 * n - 2, n - 1) // n
            asym = n * math.log(4.0) - math.log(4.0) - 0.5 * (math.log(math.pi) + 3.0 * math.log(n))
            if int(f_s) != exact:
                return False, f"Catalan f_{n} differs from math.comb", {}
            if not (_close(float(asym_s), asym)
                    and _close(float(ratio_s), math.exp(math.log(exact) - asym))):
                return False, f"Catalan row n={n} differs from the recomputed asymptotics", {}
    return True, "", {}


def check_verify(stdout_path):
    with open(stdout_path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if not lines or lines[-1] != "all checks passed" or any(ln.startswith("FAIL") for ln in lines):
        return False, "verify did not pass every oracle check", {}
    return True, "", {}
