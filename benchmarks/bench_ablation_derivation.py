"""Ablation C — derivation strategy space (sections 4-5).

Compares, for the same derivation ``x̃ = (2,1) -> ỹ = (3,1)``:

* the in-memory explicit forms of MaxOA and MinOA, ``derive_at`` at every
  position (O(n²/Wx) lookups — the relational cost profile without the
  engine overhead);
* the in-memory recursive forms, ``derive`` (O(n) lookups — the paper's
  internal-cache strategy, one whole-sequence NumPy kernel);
* recomputing ỹ from raw data with the pipelined algorithm (the baseline a
  warehouse without view derivation must pay: here raw data is available,
  in the paper's scenario it may be remote/expensive);
* the full relational patterns (measured separately in bench_table2).

Expected: recursive ≈ recompute ≪ explicit; MinOA explicit needs about
half the lookups of MaxOA explicit (the paper's "theoretically more
economical").
"""

import pytest

from repro.core import maxoa, minoa
from repro.core.complete import CompleteSequence
from repro.core.compute import compute_pipelined
from repro.core.window import sliding
from repro.warehouse import sequence_values

N = 2000
VIEW = sliding(2, 1)
TARGET = sliding(3, 1)
RAW = sequence_values(N, seed=9)
SEQ = CompleteSequence.from_raw(RAW, VIEW)


def explicit(algorithm, seq):
    """The explicit form at every position, one ``derive_at`` call each."""
    return [algorithm.derive_at(seq, TARGET, k) for k in range(1, seq.n + 1)]


def recursive(algorithm, seq):
    return algorithm.derive(seq, TARGET)


FORMS = {"explicit": explicit, "recursive": recursive}


@pytest.mark.parametrize("form", ["explicit", "recursive"])
def test_maxoa_in_memory(benchmark, form):
    benchmark.group = f"derivation n={N}"
    out = benchmark.pedantic(
        FORMS[form], args=(maxoa, SEQ), rounds=1, iterations=1)
    assert len(out) == N


@pytest.mark.parametrize("form", ["explicit", "recursive"])
def test_minoa_in_memory(benchmark, form):
    benchmark.group = f"derivation n={N}"
    out = benchmark.pedantic(
        FORMS[form], args=(minoa, SEQ), rounds=1, iterations=1)
    assert len(out) == N


def test_recompute_from_raw(benchmark):
    benchmark.group = f"derivation n={N}"
    out = benchmark(compute_pipelined, RAW, TARGET)
    assert len(out) == N


def test_minoa_explicit_cheaper_than_maxoa_explicit():
    """Lookup-count version of the 'theoretically more economical' claim."""

    class CountingSeq:
        def __init__(self, seq):
            self._seq = seq
            self.lookups = 0
            self.window = seq.window
            self.aggregate = seq.aggregate
            self.n = seq.n

        def value(self, k):
            self.lookups += 1
            return self._seq.value(k)

    a = CountingSeq(SEQ)
    explicit(maxoa, a)
    b = CountingSeq(SEQ)
    explicit(minoa, b)
    assert b.lookups < a.lookups
