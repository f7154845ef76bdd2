"""Walk one noisy block through bit-based and symbol-based SC decoding."""

import numpy as np

from polarsim import (construct_code, initial_metrics, modulate,
                      noise_sigma2, partition_symbols, polar_encode,
                      sc_decode, scatter_info, symbol_sc_decode)
from polarsim.sc import channel_combine

rng = np.random.default_rng(42)

code = construct_code(n=3, K=4, design_snr_db=0.0)
info = rng.integers(0, 2, size=code.K)
u = scatter_info(code, info)
x = polar_encode(code, u)

sigma2 = noise_sigma2(2.0, code.K / code.N)
y = modulate(x) + rng.normal(0, np.sqrt(sigma2), code.N)
metrics = initial_metrics(y, sigma2)
print("sent info:", info.tolist())
print("received:", np.round(y, 2).tolist())

# Bit-based SC decides u_0 .. u_7 one at a time.
u_hat = sc_decode(code, metrics)
print("bit-based SC decision:", u_hat.tolist(), "->",
      "ok" if np.array_equal(u_hat, u) else "frame error")

# The 4-bit symbol decoder decides u_0..u_3 and u_4..u_7 jointly. Its two
# decisions maximize a 16-entry table assembled recursively from the 4 top
# pairs of the bit tree cut 2 stages short: each combination step costs one
# addition per entry.
part = partition_symbols(code, m=2)
u_sym = symbol_sc_decode(code, part, metrics)
print("4-bit symbol SC decision:", u_sym.tolist())

# The recursive combination in isolation: two 1-bit tables -> 2-bit table.
left = np.array([0.0, -1.0])   # metrics for the xor of the two bits
right = np.array([0.0, -3.0])  # metrics for the second bit
table = channel_combine(left, right)
print("combined 2-bit table (entry u0u1 = left[u0^u1] + right[u1]):",
      table.tolist())

# Degenerate partitions reproduce the bit-based decoder exactly.
part1 = partition_symbols(code, m=0)
print("1-bit symbols match bit-based SC:",
      np.array_equal(symbol_sc_decode(code, part1, metrics), u_hat))
