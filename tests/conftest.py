"""Shared test helpers: the central finite-difference gradient oracle."""

import multiprocessing

import numpy as np
import pytest

from mgsgan import autodiff as ad

FD_H = 1e-5


def fd_gradcheck(build_loss, leaves, h=FD_H):
    """Max scaled gap between analytic gradients and central differences.

    `build_loss` must rebuild the scalar loss from the current leaf values on
    every call; the leaves are perturbed in place one element at a time. The
    gap is scaled by max(1, ||fd||_inf) per leaf.
    """
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    ad.backward(loss)
    worst = 0.0
    for leaf in leaves:
        ana = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            dn = build_loss().item()
            flat[i] = orig
            fd[i] = (up - dn) / (2 * h)
        fd = fd.reshape(leaf.data.shape)
        scale = max(1.0, float(np.abs(fd).max()))
        worst = max(worst, float(np.abs(ana - fd).max()) / scale)
    return worst


def random_probe(rng, shape):
    """Fixed random weights so a vector-valued op reduces to a scalar loss."""
    return ad.const(rng.standard_normal(shape))


def reduce_to_scalar(out: ad.Tensor, probe: ad.Tensor) -> ad.Tensor:
    return ad.sum_(ad.mul(out, probe))


@pytest.fixture
def made_nodes(monkeypatch):
    """(op name, whether it is on the tape) of every node the engine makes in the test."""
    made = []
    make = ad._make

    def recording_make(data, parents, vjp, op):
        node = make(data, parents, vjp, op)
        made.append((op, node._vjp is not None))
        return node

    monkeypatch.setattr(ad, "_make", recording_make)
    return made


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running, such as an unreaped classifier worker.

    The children are ended here, so one leak does not fail the tests after it.
    """
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=5)
    assert left == [], f"child processes left running: {left}"
