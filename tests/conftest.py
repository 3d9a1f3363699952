import os

import numpy as np
import pytest

from pathlib import Path

from submhe.cli import _analysis_params
from submhe.config import load_config
from submhe.errors import CertificateNotFound
from submhe.mhe import build_problem
from submhe.model import Box, IossCertificate, LtiSystem, find_certificate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def child_env():
    """Environment for a test's child interpreter: the package under test
    first on its path, as pyproject's pytest pythonpath puts it on ours."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def count_calls(monkeypatch, module, name):
    """Route module.name through a recorder; returns the list of calls."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def doc_params(doc, shapes):
    """The run's AnalysisParams on `shapes`, built as the CLI builds them
    (cli._analysis_params): the certificate's LMI checked, L_Phi as the
    config asserts it, and L_pi and gamma13 derived from the law."""
    return _analysis_params(doc, shapes)


@pytest.fixture(scope="session")
def case_study_doc():
    return load_config(CONFIG_DIR / "case_study.json")


@pytest.fixture(scope="session")
def certified_doc():
    return load_config(CONFIG_DIR / "case_study_certified.json")


@pytest.fixture(scope="session")
def case_study(case_study_doc):
    doc = case_study_doc
    return doc.system, doc.certificate, doc.controller


def make_system(A, B, C, u_bound=1.0, w_bound=0.1):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n_x, n_u, n_y = A.shape[0], B.shape[1], C.shape[0]
    return LtiSystem(
        A=A, B=B, C=C,
        x_box=Box.unbounded(n_x),
        u_box=Box(np.full(n_u, -u_bound), np.full(n_u, u_bound)),
        y_box=Box.unbounded(n_y),
        w1_box=Box(np.full(n_x, -w_bound), np.full(n_x, w_bound)),
        w2_box=Box(np.full(n_y, -w_bound), np.full(n_y, w_bound)),
    )


def random_certified_setup(rng, n_x_max=6):
    """Random stable system with an LMI-certified (P, Q, R, eta)."""
    while True:
        n_x = int(rng.integers(1, n_x_max + 1))
        n_u = int(rng.integers(1, 3))
        n_y = int(rng.integers(1, 3))
        eta = float(rng.uniform(0.5, 0.9))
        A = rng.standard_normal((n_x, n_x))
        A *= rng.uniform(0.3, 0.85) * np.sqrt(eta) / max(np.linalg.norm(A, 2), 1e-9)
        B = rng.standard_normal((n_x, n_u))
        C = rng.standard_normal((n_y, n_x))
        C /= max(np.linalg.norm(C, 2), 1e-9)
        sys = make_system(A, B, C)
        try:
            cert = find_certificate(sys, np.eye(n_x + n_y), np.eye(n_y), eta,
                                    budget=300)
        except CertificateNotFound:
            continue
        return sys, cert


def random_problem(rng, sys, cert, M=None, t=None):
    M = int(rng.integers(1, 6)) if M is None else M
    t = int(rng.integers(0, 2 * M + 1)) if t is None else t
    m_eff = min(M, t)
    u_win = rng.uniform(-1, 1, size=(m_eff, sys.n_u))
    y_win = rng.uniform(-2, 2, size=(m_eff, sys.n_y))
    prior = rng.uniform(-5, 5, size=sys.n_x)
    return build_problem(sys, cert, prior, u_win, y_win, M, t)


def simple_certificate(n_x, n_y, P=None, Q=None, R=None, eta=0.5):
    return IossCertificate(
        P=np.eye(n_x) if P is None else P,
        Q=np.eye(n_x + n_y) if Q is None else Q,
        R=np.eye(n_y) if R is None else R,
        eta=eta,
    )


def certified_pgd(s, c, lo, hi, alpha, q, dist, cap):
    """The literal projected-gradient loop at step alpha from v = 0, stopped
    at the first iterate certified within `dist` of the optimum, and after
    `cap` iterations at the latest.

    q is the step's contraction base; for a q-contraction T,
    ||v - v*|| <= ||T v - v|| + ||T v - T v*|| <= ||T v - v|| + q ||v - v*||
    at every v, so ||v_k - v*|| <= ||v_{k+1} - v_k|| / (1 - q).
    """
    v = np.zeros(s.shape[0])
    for _ in range(cap):
        v, v_prev = np.clip(v - alpha * (s @ v + c), lo, hi), v
        if np.linalg.norm(v - v_prev) / (1.0 - q) <= dist:
            break
    return v
