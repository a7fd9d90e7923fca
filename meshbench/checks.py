"""Correctness checks that the benchmark computes apart from the program.

Every check takes plain arrays (or parsed files) and returns a list of
failure messages; an empty list is a pass.  Reference solutions are solved
here from the local data, ledger degrees are counted from the edge list,
and gradients of the local objectives are recomputed from their samples.
``selftest.py`` feeds each check a corrupted output and expects a failure.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path

import numpy as np

BYTES_PER_SCALAR = 8

# the program measures errors against its own reference solution; a run
# that stops within this relative slack of the tolerance is not judged
SLACK = 1e-6


def degrees(n_agents: int, edges) -> np.ndarray:
    deg = np.zeros(n_agents, dtype=np.int64)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def check_ledger(bytes_sent, edges, dim: int, payloads: int, rounds: int) -> list[str]:
    """Ledger row k must equal payloads * 8 * dim * degree * k for every agent."""
    bytes_sent = np.asarray(bytes_sent)
    if bytes_sent.shape[0] != rounds + 1:
        return [f"ledger has {bytes_sent.shape[0]} rows for {rounds} rounds"]
    deg = degrees(bytes_sent.shape[1], edges)
    expected = payloads * BYTES_PER_SCALAR * dim * np.outer(np.arange(rounds + 1), deg)
    bad = np.flatnonzero(np.any(bytes_sent != expected, axis=1))
    if bad.size:
        k = int(bad[0])
        return [f"ledger round {k}: {bytes_sent[k].tolist()[:4]}... != {expected[k].tolist()[:4]}..."]
    return []


def qp_reference(hessians, linears) -> np.ndarray:
    """Minimizer of sum_i 0.5 x'P_i x + q_i'x."""
    return np.linalg.solve(sum(hessians), -sum(linears))


def _relative_errors(x_final: np.ndarray, x_ref: np.ndarray) -> np.ndarray:
    err = np.linalg.norm(x_final - x_ref, axis=1)
    norm = float(np.linalg.norm(x_ref))
    return err if norm == 0.0 else err / norm


def check_unconstrained(x_final, x_ref, rse_tol: float, converged: bool) -> list[str]:
    """A converged run is within rse_tol of the reference on every agent,
    so agents agree; a run that claims no convergence is above tolerance."""
    x_final = np.asarray(x_final, dtype=float)
    worst = float(np.max(_relative_errors(x_final, x_ref)))
    if converged:
        out = []
        if not worst <= rse_tol * (1 + SLACK):
            out.append(f"claims convergence, worst relative error {worst:.3e} > {rse_tol:.1e}")
        spread = float(np.max(np.linalg.norm(x_final - x_final.mean(axis=0), axis=1)))
        if not spread <= 2 * rse_tol * (1 + SLACK) * max(float(np.linalg.norm(x_ref)), 1.0):
            out.append(f"agents disagree by {spread:.3e}")
        return out
    if not worst > rse_tol * (1 - SLACK):
        return [f"claims no convergence, worst relative error {worst:.3e} <= {rse_tol:.1e}"]
    return []


def check_feasibility(x_final, a_mat, b_vec, tol: float = 1e-6) -> list[str]:
    feas = np.linalg.norm(np.asarray(x_final) @ a_mat.T - b_vec, axis=1)
    worst = float(np.max(feas))
    return [] if worst <= tol else [f"constraint violated by {worst:.3e} > {tol:.0e}"]


def _null_space_residual(g: np.ndarray, a_mat: np.ndarray) -> np.ndarray:
    beta, *_ = np.linalg.lstsq(a_mat.T, g, rcond=None)
    return g - a_mat.T @ beta


def logreg_mean_gradient(local_data, x: np.ndarray) -> np.ndarray:
    """Mean over agents of reg*x - F'(y * sigmoid(-y F x))."""
    g = np.zeros_like(x)
    for d in local_data:
        margin = d.labels * (d.features @ x)
        g += d.reg * x - d.features.T @ (d.labels * np.exp(-np.logaddexp(0.0, margin)))
    return g / len(local_data)


def check_logreg_stationarity(x_bar, local_data, a_mat, tol: float = 1e-5) -> list[str]:
    """Projected stationarity: the mean gradient lies in the row space of A."""
    g = logreg_mean_gradient(local_data, np.asarray(x_bar, dtype=float))
    resid = float(np.linalg.norm(_null_space_residual(g, a_mat)))
    bound = tol * (1.0 + float(np.linalg.norm(g)))
    return [] if resid <= bound else [f"projected gradient {resid:.3e} > {bound:.3e}"]


def check_l1_kkt(x_bar, local_data, a_mat, tol: float = 1e-5) -> list[str]:
    """KKT conditions of mean_i 0.5|A_i x - b_i|^2 + l1_i |x|_1 s.t. F x = e.

    On the support the smooth gradient plus l1*sign(x) must lie in the
    row space of F; off the support the fitted dual must stay inside the
    l1 ball."""
    x_bar = np.asarray(x_bar, dtype=float)
    n = len(local_data)
    r = sum(d.a.T @ (d.a @ x_bar - d.b) for d in local_data) / n
    xi = sum(d.l1 for d in local_data) / n
    scale = 1.0 + float(np.linalg.norm(r))
    support = np.abs(x_bar) > 1e-6
    out = []
    beta = np.zeros(a_mat.shape[0])
    if support.any():
        target = -(r[support] + xi * np.sign(x_bar[support]))
        beta, *_ = np.linalg.lstsq(a_mat[:, support].T, target, rcond=None)
        resid = float(np.linalg.norm(a_mat[:, support].T @ beta - target))
        if resid > tol * scale:
            out.append(f"l1 stationarity on the support {resid:.3e} > {tol * scale:.3e}")
    dual = r + a_mat.T @ beta
    if (~support).any():
        worst = float(np.max(np.abs(dual[~support])))
        if worst > xi + tol * scale:
            out.append(f"dual off the support {worst:.3e} outside the l1 ball {xi:.3e}")
    return out


def converged_from_csv(path: Path, rse_tol: float) -> bool:
    """A trace converged when its last round's worst agent error meets rse_tol."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = max(int(r["round"]) for r in rows)
    return max(float(r["rse"]) for r in rows if int(r["round"]) == last) <= rse_tol


def check_sweep_summary(summary: dict, trace_dir: Path, rse_tol: float) -> list[str]:
    """summary.json's converged counts per (algo, kappa) match the traces."""
    counted: Counter = Counter()
    out = []
    for key, run in summary["runs"].items():
        ok = converged_from_csv(trace_dir / f"trace_{key}.csv", rse_tol)
        if bool(run["converged"]) != ok:
            out.append(f"run {key}: summary says converged={run['converged']}, trace disagrees")
        if ok:
            kappa = float(key.rsplit("_s", 1)[0].split("_k")[1])
            counted[(run["algo"], kappa)] += 1
    for row in summary["table"]["rows"]:
        if row["converged"] != counted[(row["algo"], float(row["kappa"]))]:
            out.append(
                f"{row['algo']} kappa={row['kappa']}: table says {row['converged']} converged, "
                f"traces show {counted[(row['algo'], float(row['kappa']))]}"
            )
    return out
