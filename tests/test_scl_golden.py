"""Golden outputs of the CRC-aided list decoder.

The SHA-256 of every (u_hat, crc_ok) pair below was produced by the reference
SCL implementation that copied each path's full state at every information
leaf.  Any rewrite of the path management must reproduce them bit for bit.
The patterns are QUP, so punctured LLRs are exactly 0 and path metrics tie,
which pins the tie order of the candidate sort as well.
"""

import hashlib

import numpy as np
import pytest

from polarkit import (ChannelModel, CodeSpec, SCLDecoder, channel_llrs, encode,
                      ga_llr_means, qup_pattern, select_information_set)
from polarkit.decoders import crc16_remainder_bits

FRAMES = 160
SNRS_DB = (1.0, 2.5)

# (N, K, n_p, L, crc) -> SHA-256 per SNR in SNRS_DB
GOLDEN = {
    (128, 64, 28, 8, 16): (
        "9e82f6244ba75bd72b2bcf2bd942ddbccf7914fd5b63fa8b6c7578a75649fdd0",
        "33b6abee23ced10cc6955f4a275229e3b2355e8cee736dd77cf4cbfa0b0fe04e"),
    (64, 32, 24, 4, 0): (
        "8cec08de302ad9b4a52db8b55d764c2c0f1e79bf2d479bc76e06d9b1d95c1b2a",
        "b0f1097f461d44ce680d5a08df40e412c53be39defc12fee58964596819e00eb"),
    (256, 128, 40, 8, 16): (
        "9c70d7b7d0be4f4229f23e8c4bcd7d78457a71069c0eb16b43902c45e1a36fd5",
        "8cf1805833bad808d14866bfd24554aab09c2f3a37da3cbad13625e89a0f5baf"),
    (64, 32, 24, 16, 16): (
        "06b8b6f0ecebcffbe97b9eb5619f8792ed53e9d7fc76fcadd88c9d018331d4be",
        "ec659a9b6e4cdd0d8a9ec01baf56edb5fdddb0776d721c6e7dd7771c7615b55d"),
    (32, 16, 4, 1, 0): (
        "4d58498455581aaf6dfceef603dadeea714e8c4bb09af860901f60d73fcec611",
        "b75046e8ea9b312f9521459b436e2b5103139e65f9ca6edfffcdb26e0c1e3fa9"),
}


def _digest(n, k, n_p, list_size, crc, snr_index):
    spec = CodeSpec(n, k)
    pattern = qup_pattern(spec, n_p)
    rate = k / pattern.n_transmitted
    info = select_information_set(ga_llr_means(spec, 2.0, pattern, rate), k)
    idx = np.asarray(info, dtype=np.int64) - 1
    rng = np.random.default_rng([n, list_size, crc, snr_index])
    payload = rng.integers(0, 2, size=(FRAMES, k - crc), dtype=np.int8)
    if crc:
        payload = np.concatenate([payload, crc16_remainder_bits(payload)], axis=1)
    u = np.zeros((FRAMES, n), dtype=np.int8)
    u[:, idx] = payload
    llr = channel_llrs(encode(u, spec), ChannelModel.awgn(SNRS_DB[snr_index]),
                       pattern, rate, rng)
    assert np.any(llr == 0.0)

    u_hat, crc_ok = SCLDecoder(spec, info, list_size=list_size,
                               crc_len=crc).decode(llr)
    assert u_hat.dtype == np.int8 and u_hat.shape == (FRAMES, n)
    h = hashlib.sha256(u_hat.tobytes())
    if crc:
        assert crc_ok.dtype == np.bool_ and crc_ok.shape == (FRAMES,)
        h.update(crc_ok.tobytes())
    else:
        assert crc_ok is None
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "N%d-K%d-np%d-L%d-crc%d" % c)
@pytest.mark.parametrize("snr_index", range(len(SNRS_DB)))
def test_scl_matches_golden_hash(case, snr_index):
    assert _digest(*case, snr_index) == GOLDEN[case][snr_index]
