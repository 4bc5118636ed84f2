"""Golden outputs of the CRC-aided list decoder and of the SC decoder.

The SHA-256 of every SCL (u_hat, crc_ok) pair below was produced by the
reference SCL implementation that copied each path's full state at every
information leaf.  Any rewrite of the path management must reproduce them bit
for bit.  The patterns are QUP, so punctured LLRs are exactly 0 and path
metrics tie, which pins the tie order of the candidate sort as well.

The SC hashes were produced by the reference SC decoder that descended into
every subtree, frozen or not, and pin any rewrite of the SC tree walk.
"""

import hashlib

import numpy as np
import pytest

from polarkit import (ChannelModel, CodeSpec, PuncturingPattern, SCDecoder,
                      SCLDecoder, channel_llrs, encode, ga_llr_means,
                      load_pattern, qup_pattern, reference_pattern_path,
                      select_information_set)
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


def _ga_info_set(spec, pattern):
    rate = spec.k_info / pattern.n_transmitted
    return select_information_set(ga_llr_means(spec, 2.0, pattern, rate),
                                  spec.k_info)


def _channel_llrs(spec, pattern, info, crc, snr_index, rng):
    """LLRs of FRAMES random codewords (payload plus CRC) at SNRS_DB[snr_index]."""
    n, k = spec.n_mother, spec.k_info
    idx = np.asarray(info, dtype=np.int64) - 1
    payload = rng.integers(0, 2, size=(FRAMES, k - crc), dtype=np.int8)
    if crc:
        payload = np.concatenate([payload, crc16_remainder_bits(payload)], axis=1)
    u = np.zeros((FRAMES, n), dtype=np.int8)
    u[:, idx] = payload
    llr = channel_llrs(encode(u, spec), ChannelModel.awgn(SNRS_DB[snr_index]),
                       pattern, k / pattern.n_transmitted, rng)
    assert np.any(llr == 0.0) == (pattern.n_p > 0)
    return llr


def _digest(n, k, n_p, list_size, crc, snr_index):
    spec = CodeSpec(n, k)
    pattern = qup_pattern(spec, n_p)
    info = _ga_info_set(spec, pattern)
    rng = np.random.default_rng([n, list_size, crc, snr_index])
    llr = _channel_llrs(spec, pattern, info, crc, snr_index, rng)

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


# (N, K, n_p, source) -> SHA-256 of u_hat per SNR in SNRS_DB.  ``source`` is
# "qup" (information set by GA at 2 dB) or a shipped pattern file, whose own
# information set is used; n_p = 0 is the unpunctured code.
SC_GOLDEN = {
    (64, 32, 24, "qup"): (
        "7fa3029a49b4995ca20b71a7526929d06c9c627a25ed4032fb053050e560c429",
        "e09c748dd1acf257e49d17400057dedfcb247b5c14fd641c6afed28dc74cb1cb"),
    (128, 64, 28, "qup"): (
        "4c4bd8b8554159fc7a5492a01d8e3c95a0144de0f4f3a6f6f8f33c17837dfd9d",
        "20aa8fb72c109a5fca2d152516d6cc663ea0ecad581582340aad428f40283341"),
    (1024, 512, 224, "qup"): (
        "e95b4fc907a50ebbcb0079293b5f50e7c0872b289e5e617794f7b4311ae4d171",
        "02cccd3aa86d4fda2ba0635bb41e382c731e8c3bca56f56c15a0b79de7ada2c3"),
    (128, 64, 28, "de_n128_k64_np28.json"): (
        "f1e496d6390bc6a60621391150c5e235123c3f2557094fd12664a8b0678dffe8",
        "6752edb366c290049f6cd0c425dc662f31362a2dc7e9c04cbc4c1402d7ca896a"),
    (256, 128, 0, "qup"): (
        "9f686d57cb52b96e2dd22429767bd71eeb551ab68a210a0bdf03c12b3148f84d",
        "0b4131f0e2cc7e80cbdb39efb50a5b5198887fb9682af5588b5a502b16cf2d80"),
}


def _sc_digest(n, k, n_p, source, snr_index):
    spec = CodeSpec(n, k)
    if source == "qup":
        pattern = qup_pattern(spec, n_p) if n_p else PuncturingPattern(n, ())
        info = _ga_info_set(spec, pattern)
    else:
        pattern, info, _ = load_pattern(reference_pattern_path(source))
        assert (pattern.n_mother, pattern.n_p, len(info)) == (n, n_p, k)
    rng = np.random.default_rng([n, k, n_p, snr_index])
    llr = _channel_llrs(spec, pattern, info, 0, snr_index, rng)

    u_hat = SCDecoder(spec, info).decode(llr)
    assert u_hat.dtype == np.int8 and u_hat.shape == (FRAMES, n)
    return hashlib.sha256(u_hat.tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(SC_GOLDEN), ids=lambda c: "N%d-K%d-np%d-%s" % c)
@pytest.mark.parametrize("snr_index", range(len(SNRS_DB)))
def test_sc_matches_golden_hash(case, snr_index):
    assert _sc_digest(*case, snr_index) == SC_GOLDEN[case][snr_index]
