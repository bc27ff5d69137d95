"""FunctionBench profiles (paper Tables 1 and 2).

Each profile carries the function's library set (Table 1), mean execution
time and full-scale memory footprint (Table 2), a cold-start cost, and
the knobs that drive its synthetic memory image.  Names follow Table 2
(the evaluation's notation: ``HTMLServe``/``RNNModel`` rather than the
measurement study's ``HTTPServe``/``ModelServe``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from repro._util import MIB
from repro.memory.image import MemoryImage, synthesize_image
from repro.memory.layout import ImageLayout, standard_layout


@dataclass(frozen=True)
class FunctionProfile:
    """Static description of one serverless function.

    Attributes:
        name: Function name (Table 2 notation).
        description: Table 2's environment description.
        libraries: Imported third-party libraries (Table 1), driving the
            LIBRARY regions of the memory image.
        exec_time_ms: Mean request execution time (Table 2).
        memory_mb: Full-scale warm memory footprint in MB (Table 2).
        cold_start_ms: Cost of a cold start — sandbox spawn plus
            environment initialization (runtime + library imports).
        exec_cv: Coefficient of variation of execution times.
        unique_boost: Multiplier on the instance-unique image share (see
            :func:`repro.memory.layout.standard_layout`).
    """

    name: str
    description: str
    libraries: tuple[str, ...]
    exec_time_ms: float
    memory_mb: float
    cold_start_ms: float
    exec_cv: float = 0.08
    unique_boost: float = 1.0

    def __post_init__(self) -> None:
        if self.exec_time_ms <= 0 or self.memory_mb <= 0 or self.cold_start_ms <= 0:
            raise ValueError(f"profile {self.name}: times and memory must be positive")

    @cached_property
    def memory_bytes(self) -> int:
        """Full-scale footprint in bytes."""
        return int(self.memory_mb * MIB)

    def layout(self) -> ImageLayout:
        """The function's memory-image layout (cached per profile)."""
        return _layout_for(self.name, self.libraries, self.memory_bytes, self.unique_boost)

    def synthesize(
        self,
        instance_seed: int,
        *,
        content_scale: float = 1.0,
        aslr: bool = False,
        executed: bool = False,
    ) -> MemoryImage:
        """Synthesize one sandbox instance's memory image.

        ``content_scale`` shrinks the materialized image while keeping
        region proportions (the platform measures savings as fractions
        and applies them to the full-scale footprint).  ``executed``
        selects the post-execution state (dirty pages present) — what
        the platform checkpoints and dedups; the default fresh state is
        what the Section-2 measurement study compares.
        """
        if not 0 < content_scale <= 1:
            raise ValueError("content_scale must be in (0, 1]")
        total = max(64 * 1024, int(self.memory_bytes * content_scale))
        return synthesize_image(
            self.layout(), total, instance_seed, aslr=aslr, executed=executed
        )


@lru_cache(maxsize=128)
def _layout_for(
    name: str, libraries: tuple[str, ...], memory_bytes: int, unique_boost: float
) -> ImageLayout:
    return standard_layout(name, libraries, memory_bytes, unique_boost=unique_boost)


#: The ten FunctionBench profiles of Tables 1-2.  Cold-start costs follow
#: the Fig 8 ordering: small stdlib-only functions start fastest; the
#: ML-framework functions (FeatureGen, RNNModel, ModelTrain) are the
#: slowest to initialize.
_PROFILES: tuple[FunctionProfile, ...] = (
    FunctionProfile(
        name="Vanilla",
        description="Empty environment / simple math",
        libraries=(),
        exec_time_ms=150,
        memory_mb=17,
        cold_start_ms=550,
    ),
    FunctionProfile(
        name="LinAlg",
        description="Linear algebra",
        libraries=("numpy",),
        exec_time_ms=250,
        memory_mb=32,
        cold_start_ms=800,
    ),
    FunctionProfile(
        name="ImagePro",
        description="Image processing",
        libraries=("numpy", "pillow"),
        exec_time_ms=1200,
        memory_mb=26.4,
        cold_start_ms=900,
    ),
    FunctionProfile(
        name="VideoPro",
        description="Video processing",
        libraries=("numpy", "opencv"),
        exec_time_ms=2000,
        memory_mb=48,
        cold_start_ms=1200,
    ),
    FunctionProfile(
        name="MapReduce",
        description="Multi-process mapreduce job",
        libraries=("multiprocessing",),
        exec_time_ms=500,
        memory_mb=32,
        cold_start_ms=700,
    ),
    FunctionProfile(
        name="HTMLServe",
        description="HTML serving application",
        libraries=("chameleon", "json"),
        exec_time_ms=400,
        memory_mb=22.3,
        cold_start_ms=650,
    ),
    FunctionProfile(
        name="AuthEnc",
        description="Authentication / encryption",
        libraries=("pyaes", "json"),
        exec_time_ms=400,
        memory_mb=22.3,
        cold_start_ms=650,
    ),
    FunctionProfile(
        name="FeatureGen",
        description="Feature generation / data preprocessing",
        libraries=("sklearn-tfidf", "pandas", "numpy"),
        exec_time_ms=1000,
        memory_mb=66,
        cold_start_ms=1600,
        unique_boost=2.5,
    ),
    FunctionProfile(
        name="RNNModel",
        description="RNN model serving",
        libraries=("torch",),
        exec_time_ms=1000,
        memory_mb=90,
        cold_start_ms=2200,
    ),
    FunctionProfile(
        name="ModelTrain",
        description="Regression model training",
        libraries=("sklearn-tfidf", "sklearn-logreg", "numpy"),
        exec_time_ms=3000,
        memory_mb=87.5,
        cold_start_ms=1900,
    ),
)


@dataclass(frozen=True)
class FunctionBenchSuite:
    """The benchmark suite: an ordered, name-addressable set of profiles."""

    profiles: tuple[FunctionProfile, ...] = field(default=_PROFILES)
    _by_name: dict[str, FunctionProfile] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name = {p.name: p for p in self.profiles}
        if len(by_name) != len(self.profiles):
            raise ValueError("duplicate profile names in suite")
        object.__setattr__(self, "_by_name", by_name)

    @classmethod
    def default(cls) -> "FunctionBenchSuite":
        """All ten FunctionBench profiles."""
        return cls()

    @classmethod
    def subset(cls, names: tuple[str, ...] | list[str]) -> "FunctionBenchSuite":
        """A suite restricted to ``names`` (order preserved).

        The paper's microbenchmarks (Sections 7.5-7.8) use the
        representative subset {LinAlg, FeatureGen, ModelTrain}.
        """
        base = cls.default()
        return cls(profiles=tuple(base.get(name) for name in names))

    @classmethod
    def replicated(
        cls, names: tuple[str, ...] | list[str], copies: int
    ) -> "FunctionBenchSuite":
        """Many distinct functions per environment (the paper's workload).

        The evaluation assigns multiple Azure arrival patterns to each
        FunctionBench use case — i.e. many *different* functions share
        an environment.  ``LinAlg~2`` has LinAlg's libraries, timings
        and footprint but its own function-private memory (its heap and
        stack content keys derive from the replica name), so replicas
        dedup against each other only through shared runtime/library
        regions, like distinct customer functions would.
        """
        if copies <= 0:
            raise ValueError("copies must be positive")
        base = cls.default()
        replicas = []
        for name in names:
            profile = base.get(name)
            for copy in range(copies):
                replica_name = name if copy == 0 else f"{name}~{copy}"
                replicas.append(
                    FunctionProfile(
                        name=replica_name,
                        description=profile.description,
                        libraries=profile.libraries,
                        exec_time_ms=profile.exec_time_ms,
                        memory_mb=profile.memory_mb,
                        cold_start_ms=profile.cold_start_ms,
                        exec_cv=profile.exec_cv,
                        unique_boost=profile.unique_boost,
                    )
                )
        return cls(profiles=tuple(replicas))

    def get(self, name: str) -> FunctionProfile:
        """Look up a profile by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown function {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def __len__(self) -> int:
        return len(self.profiles)


#: The representative subset used by the paper's microbenchmarks (§7.5).
REPRESENTATIVE_SUBSET = ("LinAlg", "FeatureGen", "ModelTrain")
