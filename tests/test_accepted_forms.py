"""Every public entry point reads p and D the same way.

Each accepted spelling of one value (Fraction, int, float, "n/d",
(n, d), numpy float64 and int64, SourceModel or DistortionBudget) must
give the answer the Fraction gives, and a value outside [0, 1] must
raise ValueError wherever it enters.
"""

from fractions import Fraction

import numpy as np
import pytest

from clp import (
    BitSequence,
    DistortionBudget,
    ExperimentConfig,
    Header,
    SourceModel,
    ball_probability_exact,
    cycle_lemma_lower_bound_exact,
    encode_idealized,
    encode_practical,
    level_size,
    lower_mutual_info,
    match_probability_exact,
    matches_full,
    matches_prefixwise,
    optimal_reproduction_type,
    rate_distortion,
    target_reproduction_type,
)

X = BitSequence(0b1011001110, 10)
Y = BitSequence(0b1011000110, 10)
SOURCE = BitSequence(0x9E3779B97F4A7C15F39CC0605CEDC834, 128)

# name -> call(p, D); lower_mutual_info takes q = p, which is always feasible
CALLS = {
    "rate_distortion": lambda p, d: rate_distortion(p, d),
    "lower_mutual_info": lambda p, d: lower_mutual_info(p, p, d),
    "target_reproduction_type": lambda p, d: target_reproduction_type(p, d),
    "optimal_reproduction_type": lambda p, d: optimal_reproduction_type(p, d),
    "matches_full": lambda p, d: matches_full(X, Y, d),
    "matches_prefixwise": lambda p, d: matches_prefixwise(X, Y, d),
    "ball_probability": lambda p, d: ball_probability_exact(Y, d, p),
    "match_probability": lambda p, d: match_probability_exact(Y, d, p),
    "cycle_lemma_lower_bound": lambda p, d: cycle_lemma_lower_bound_exact(Y, d, p),
    "level_size": lambda p, d: level_size(4, p, d),
    "Header.build": lambda p, d: Header.build(SOURCE.length, d, p),
    "encode_practical": lambda p, d: encode_practical(SOURCE, d, src=p).stream.to_bytes(),
    "encode_idealized": lambda p, d: encode_idealized(SOURCE, d, p).stream.to_bytes(),
    "ExperimentConfig": lambda p, d: ExperimentConfig(p=p, dist=d),
}
P_FREE = {"matches_full", "matches_prefixwise"}

# form -> spell(value, wrapper class); None where the form cannot spell it
FORMS = {
    "Fraction": lambda f, wrap: f,
    "int": lambda f, wrap: int(f) if f.denominator == 1 else None,
    "float": lambda f, wrap: float(f),
    "str": lambda f, wrap: f"{f.numerator}/{f.denominator}",
    "tuple": lambda f, wrap: (f.numerator, f.denominator),
    "np.float64": lambda f, wrap: np.float64(float(f)),
    "np.int64": lambda f, wrap: np.int64(int(f)) if f.denominator == 1 else None,
    "wrapper": lambda f, wrap: wrap(f),
}

# (p, D) cells; the second is whole so that the integer forms apply
CELLS = ((Fraction(3, 10), Fraction(1, 10)), (Fraction(1), Fraction(0)))

OUT_OF_RANGE = {
    "Fraction(3, 2)": Fraction(3, 2),
    "Fraction(-1, 2)": Fraction(-1, 2),
    "'3/2'": "3/2",
    "1.5": 1.5,
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", CALLS)
def test_every_form_gives_one_answer(name, form):
    call, spell = CALLS[name], FORMS[form]
    checked = 0
    for p, d in CELLS:
        p_form, d_form = spell(p, SourceModel), spell(d, DistortionBudget)
        if p_form is None or d_form is None:
            continue
        assert call(p_form, d_form) == call(p, d), (p, d)
        checked += 1
    assert checked


@pytest.mark.parametrize("bad", OUT_OF_RANGE)
@pytest.mark.parametrize("name", CALLS)
def test_out_of_range_raises(name, bad):
    call, value = CALLS[name], OUT_OF_RANGE[bad]
    p, d = CELLS[0]
    with pytest.raises(ValueError):
        call(p, value)
    if name not in P_FREE:
        with pytest.raises(ValueError):
            call(value, d)
