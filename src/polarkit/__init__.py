"""Toolkit for designing and evaluating length-compatible punctured polar
codes: encoder, construction, SC/SCL decoding, Monte Carlo simulation, and a
differential-evolution search for puncturing patterns."""

from .construction import (ReliabilityVector, bec_bhattacharyya, ga_llr_means,
                           noise_variance, select_information_set)
from .core import (CodeSpec, bit_reversal_permutation, bit_reverse, encode,
                   generator_matrix)
from .decoders import (DecoderConfig, SCDecoder, SCLDecoder, crc16_append,
                       crc16_ccitt, crc16_check, f_node, g_node)
from .evolution import (DeConfig, DeResult, de_optimize, evaluation_seed,
                        init_population, make_trial)
from .montecarlo import (BerReport, ChannelModel, channel_llrs, objective,
                         simulate)
from .puncturing import (PatternFileError, PuncturingPattern,
                         branch_role_counts, candidate_bits, load_pattern,
                         qup_pattern, reference_pattern_path, rqup_pattern,
                         save_pattern, vector_to_pattern)

__version__ = "0.1.0"

__all__ = [
    "BerReport", "ChannelModel", "CodeSpec", "DeConfig", "DeResult",
    "DecoderConfig", "PatternFileError", "PuncturingPattern",
    "ReliabilityVector", "SCDecoder", "SCLDecoder", "bec_bhattacharyya",
    "bit_reversal_permutation", "bit_reverse", "branch_role_counts",
    "candidate_bits", "channel_llrs", "crc16_append", "crc16_ccitt",
    "crc16_check", "de_optimize", "encode", "evaluation_seed", "f_node",
    "g_node", "ga_llr_means", "generator_matrix", "init_population",
    "load_pattern", "make_trial", "noise_variance", "objective",
    "qup_pattern", "reference_pattern_path", "rqup_pattern", "save_pattern",
    "select_information_set", "simulate", "vector_to_pattern",
]
