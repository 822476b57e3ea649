"""Independent reference implementations used as test oracles.

Everything here is written from the defining formulas with explicit
summation (math module, plain loops, matrices built from cos/sin terms),
deliberately sharing no code with the production pipeline.
"""

import math
import struct

import numpy as np


def direct_power_spectrum(frame: np.ndarray) -> np.ndarray:
    """O(N^2) direct-summation DFT, one-sided squared magnitude."""
    n = len(frame)
    k = np.arange(n // 2 + 1)
    angles = 2.0 * math.pi * np.outer(np.arange(n), k) / n
    real = frame @ np.cos(angles)
    imag = frame @ (-np.sin(angles))
    return real**2 + imag**2


def slaney_mel_edges(fmin: float, fmax: float, n_mels: int) -> list[float]:
    def to_mel(hz):
        if hz < 1000.0:
            return 3.0 * hz / 200.0
        return 15.0 + 27.0 * math.log(hz / 1000.0) / math.log(6.4)

    def to_hz(mel):
        if mel < 15.0:
            return 200.0 * mel / 3.0
        return 1000.0 * math.exp(math.log(6.4) * (mel - 15.0) / 27.0)

    lo, hi = to_mel(fmin), to_mel(fmax)
    return [to_hz(lo + (hi - lo) * i / (n_mels + 1)) for i in range(n_mels + 2)]


def triangle_filter_row(fmin: float, fmax: float, n_mels: int, row: int,
                        sample_rate: int, fft_size: int) -> np.ndarray:
    """One mel filter evaluated bin by bin from the triangle definition."""
    edges = slaney_mel_edges(fmin, fmax, n_mels)
    lo, mid, hi = edges[row], edges[row + 1], edges[row + 2]
    out = np.zeros(fft_size // 2 + 1)
    for j in range(len(out)):
        f = j * sample_rate / fft_size
        if lo <= f <= mid and mid > lo:
            value = (f - lo) / (mid - lo)
        elif mid < f <= hi and hi > mid:
            value = (hi - f) / (hi - mid)
        else:
            value = 0.0
        out[j] = value * 2.0 / (hi - lo)
    return out


def direct_dct2_ortho(x: np.ndarray, keep: int) -> np.ndarray:
    n = len(x)
    out = np.zeros(keep)
    for k in range(keep):
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * sum(x[i] * math.cos(math.pi * (i + 0.5) * k / n) for i in range(n))
    return out


def mfcc_pipeline(samples: np.ndarray, sample_rate: int, fft_size: int = 2048,
                  hop: int = 512, n_mels: int = 128, fmin: float = 0.0,
                  fmax: float = 8000.0, n_mfcc: int = 40, log_floor: float = 1e-10) -> np.ndarray:
    """End-to-end brute-force MFCC: direct DFT, direct triangles, direct DCT."""
    pad = fft_size // 2
    padded = np.concatenate([samples[1 : pad + 1][::-1], samples, samples[-pad - 1 : -1][::-1]])
    n_frames = 1 + len(samples) // hop
    window = np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * k / fft_size) for k in range(fft_size)])
    frames = np.stack([padded[i * hop : i * hop + fft_size] * window for i in range(n_frames)])

    k = np.arange(fft_size // 2 + 1)
    angles = 2.0 * math.pi * np.outer(np.arange(fft_size), k) / fft_size
    real = frames @ np.cos(angles)
    imag = frames @ (-np.sin(angles))
    power = real**2 + imag**2

    bank = np.stack([
        triangle_filter_row(fmin, fmax, n_mels, i, sample_rate, fft_size)
        for i in range(n_mels)
    ])
    mel_db = 10.0 * np.log10(np.maximum(power @ bank.T, log_floor))

    basis = np.zeros((n_mels, n_mfcc))
    for kk in range(n_mfcc):
        scale = math.sqrt(1.0 / n_mels) if kk == 0 else math.sqrt(2.0 / n_mels)
        for nn in range(n_mels):
            basis[nn, kk] = scale * math.cos(math.pi * (nn + 0.5) * kk / n_mels)
    return mel_db @ basis


def reference_crc32(data: bytes) -> int:
    """Bitwise reflected CRC-32 (polynomial 0x04C11DB7, reflected 0xEDB88320)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def raw_frame(device_id: int, seq: int, sample_rate: int, payload: bytes) -> bytes:
    """A device frame's wire bytes with a valid CRC, laid out by hand and
    without DeviceFrame's checks, so a test can send frames no sender builds."""
    body = struct.pack("<4sQIII", b"WBF1", device_id, seq, sample_rate, len(payload)) + payload
    return body + struct.pack("<I", reference_crc32(body))


def adam_scalar_trajectory(theta0: float, steps: int, lr: float = 1e-3,
                           beta1: float = 0.9, beta2: float = 0.999,
                           eps: float = 1e-8) -> list[float]:
    """Hand-rolled Adam recurrence minimizing f(theta) = theta^2."""
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        g = 2.0 * theta
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def _logistic(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def lstm_reference(x: np.ndarray, w: np.ndarray, u: np.ndarray, b: np.ndarray,
                   dh_last: np.ndarray):
    """Plain per-step LSTM and its backpropagation through time.

    Gate order (input, forget, cell, output), logistic sigmoid gates, zero
    initial state. Returns (h_last, dx, dw, du, db) for the loss gradient
    dh_last on the last hidden state.
    """
    batch, steps, _ = x.shape
    hidden = u.shape[0]
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    tape = []
    for t in range(steps):
        z = x[:, t, :] @ w + h @ u + b
        i = _logistic(z[:, :hidden])
        f = _logistic(z[:, hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = _logistic(z[:, 3 * hidden :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        tape.append((h, c, c_new, i, f, g, o))
        h, c = h_new, c_new

    dx = np.zeros_like(x)
    dw, du, db = np.zeros_like(w), np.zeros_like(u), np.zeros_like(b)
    dh = dh_last
    dc = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        h_prev, c_prev, c_t, i, f, g, o = tape[t]
        tanh_c = np.tanh(c_t)
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        dz = np.hstack([
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g * g),
            dh * tanh_c * o * (1.0 - o),
        ])
        dw += x[:, t, :].T @ dz
        du += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ w.T
        dh = dz @ u.T
        dc = dc * f
    return h, dx, dw, du, db


def maxpool_reference(x: np.ndarray, width: int, dy: np.ndarray):
    """Window maximum over time and its gradient by an explicit argmax per
    window (the first maximum wins); the trailing remainder is dropped."""
    batch, steps, channels = x.shape
    t_out = steps // width
    y = np.zeros((batch, t_out, channels))
    dx = np.zeros_like(x)
    for bi in range(batch):
        for j in range(t_out):
            for ch in range(channels):
                window = x[bi, j * width : (j + 1) * width, ch]
                k = int(np.argmax(window))
                y[bi, j, ch] = window[k]
                dx[bi, j * width + k, ch] = dy[bi, j, ch]
    return y, dx


def conv1d_reference(x: np.ndarray, k: np.ndarray, b: np.ndarray, dy: np.ndarray):
    """Same-length 1-D convolution over time and its gradients by explicit loops.

    y[n, t, o] = b[o] + sum over taps d and input channels i of
    x[n, t + d - pad, i] * k[d, i, o], with pad = (width - 1) / 2 and x zero
    outside 0 .. T-1. Returns (y, dx, dk, db) for the loss gradient dy on y.
    """
    batch, steps, c_in = x.shape
    width, _, c_out = k.shape
    pad = (width - 1) // 2
    y = np.zeros((batch, steps, c_out))
    dx, dk, db = np.zeros_like(x), np.zeros_like(k), np.zeros_like(b)
    for n in range(batch):
        for t in range(steps):
            for o in range(c_out):
                acc = b[o]
                db[o] += dy[n, t, o]
                for d in range(width):
                    s = t + d - pad
                    if not 0 <= s < steps:
                        continue
                    for i in range(c_in):
                        acc += x[n, s, i] * k[d, i, o]
                        dx[n, s, i] += dy[n, t, o] * k[d, i, o]
                        dk[d, i, o] += dy[n, t, o] * x[n, s, i]
                y[n, t, o] = acc
    return y, dx, dk, db
