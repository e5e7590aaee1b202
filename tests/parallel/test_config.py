"""ExecutionConfig validation and resolution."""

import pytest

from repro.errors import ParallelError
from repro.parallel import BACKENDS, ExecutionConfig


class TestValidation:
    def test_defaults_are_serial(self):
        config = ExecutionConfig()
        assert config.backend == "serial"
        assert config.jobs == 1
        assert not config.is_parallel

    def test_serial_factory_equals_default(self):
        assert ExecutionConfig.serial() == ExecutionConfig()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_known_backends_accepted(self, backend):
        assert ExecutionConfig(backend=backend).backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParallelError):
            ExecutionConfig(backend="gpu")

    def test_unknown_kernel_rejected(self):
        # The per-chunk kernel is not configurable: chunks run vectorized.
        with pytest.raises(TypeError):
            ExecutionConfig(kernel="simd")

    def test_negative_jobs_rejected(self):
        with pytest.raises(ParallelError):
            ExecutionConfig(jobs=-1)

    def test_zero_chunk_size_rejected(self):
        with pytest.raises(ParallelError):
            ExecutionConfig(chunk_size=0)


class TestResolution:
    def test_jobs_zero_resolves_to_cpu_count(self):
        resolved = ExecutionConfig(jobs=0).resolved_jobs
        assert resolved >= 1

    def test_explicit_jobs_pass_through(self):
        assert ExecutionConfig(jobs=7).resolved_jobs == 7

    def test_is_parallel_needs_backend_and_workers(self):
        assert ExecutionConfig(jobs=4, backend="thread").is_parallel
        assert not ExecutionConfig(jobs=4, backend="serial").is_parallel
        assert not ExecutionConfig(jobs=1, backend="thread").is_parallel

    def test_describe_mentions_every_knob(self):
        text = ExecutionConfig(jobs=2, backend="thread", chunk_size=128).describe()
        assert "thread" in text and "jobs=2" in text and "chunk_size=128" in text
