"""Layer and batch normalization as first written, one formula per mode and
phase, forward and backward. The library standardises over one axis looked
up per (mode, phase); both must agree to the byte."""

import numpy as np

from semmatch.model import NORM_BATCH, NORM_LAYER, NORM_NONE, NormState


def oracle_normalize(x, state: NormState, mode, phase, momentum, eps):
    """(out, cache) for one arm; batch norm in training updates `state`'s
    running statistics in place."""
    if mode == NORM_NONE:
        return x, None
    if mode == NORM_LAYER:
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        std = np.sqrt(var + eps)
        xhat = (x - mu) / std
    elif phase == "train":
        if x.shape[0] < 2:
            raise ValueError("batch normalization needs batch size >= 2 in train phase")
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        std = np.sqrt(var + eps)
        xhat = (x - mu) / std
        state.running_mean[:] = momentum * state.running_mean + (1 - momentum) * mu
        state.running_var[:] = momentum * state.running_var + (1 - momentum) * var
    else:
        std = np.sqrt(state.running_var + eps)
        xhat = (x - state.running_mean) / std
    out = state.gamma * xhat + state.beta
    return out, (mode, phase, xhat, std, state.gamma)


def oracle_norm_backward(dout, cache):
    """(dx, dgamma, dbeta); with no normalization, (dout, None, None)."""
    if cache is None:
        return dout, None, None
    mode, phase, xhat, std, gamma = cache
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * gamma
    if mode == NORM_LAYER:
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) / std
    elif mode == NORM_BATCH and phase == "train":
        m1 = dxhat.mean(axis=0)
        m2 = (dxhat * xhat).mean(axis=0)
        dx = (dxhat - m1 - xhat * m2) / std
    else:
        dx = dxhat / std
    return dx, dgamma, dbeta
