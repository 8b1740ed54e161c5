"""Data preparation pipelines (Section II-B4).

The paper's two LLM roles:

* **search-space pruning** — "recommend candidate pipelines, significantly
  reducing the search space": a dataset profile (missing values? skew?
  outliers? scale spread?) prunes the operator set before beam search;
* **per-operation code synthesis** — each chosen operation's implementation
  is synthesized by the LLM (:data:`repro.llm.engines.codegen.SNIPPET_LIBRARY`
  shapes), exec'd into a callable, and applied.

The downstream task scoring the pipeline is a 1-nearest-neighbor classifier
with leave-some-out accuracy — small, dependency-free, and sensitive to
scaling/imputation quality, which is what makes the search non-trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.prompts.templates import prep_code_prompt
from repro.errors import PipelineError
from repro.serving import CompletionProvider

# Operations the searcher may apply, in the snippet library's vocabulary.
NUMERIC_OPS = (
    "impute_mean",
    "standardize",
    "normalize",
    "clip_outliers",
    "log_transform",
)


@dataclass
class PipelineStep:
    """One synthesized operation: name + compiled callable + source code."""

    operation: str
    code: str
    fn: Callable[[List[float]], List[float]]


@dataclass
class PreparedPipeline:
    """The searched pipeline with its validation score."""

    steps: List[PipelineStep]
    score: float
    baseline_score: float

    @property
    def operations(self) -> List[str]:
        return [s.operation for s in self.steps]

    def apply(self, columns: List[List[Optional[float]]]) -> List[List[float]]:
        out = [list(c) for c in columns]
        for step in self.steps:
            out = [step.fn(column) for column in out]
        return out


def profile_dataset(columns: Sequence[Sequence[Optional[float]]]) -> Dict[str, bool]:
    """Cheap dataset profile driving the LLM-guided pruning."""
    flat = [v for column in columns for v in column if v is not None]
    has_missing = any(v is None for column in columns for v in column)
    if not flat:
        return {"has_missing": has_missing, "skewed": False, "outliers": False, "scale_spread": False}
    mean = sum(flat) / len(flat)
    std = math.sqrt(sum((v - mean) ** 2 for v in flat) / len(flat)) or 1.0
    skewed = all(v >= 0 for v in flat) and (max(flat) - mean) > 3 * (mean - min(flat) + 1e-9)
    outliers = any(abs(v - mean) > 4 * std for v in flat)
    spans = [
        (max(c_vals) - min(c_vals))
        for column in columns
        if (c_vals := [v for v in column if v is not None])
    ]
    scale_spread = bool(spans) and max(spans) > 20 * (min(spans) + 1e-9)
    return {
        "has_missing": has_missing,
        "skewed": skewed,
        "outliers": outliers,
        "scale_spread": scale_spread,
    }


def recommend_operations(profile: Dict[str, bool]) -> List[str]:
    """Profile → candidate operations (the pruned search space)."""
    from repro.llm.engines.codegen import recommend_ops_from_profile

    return recommend_ops_from_profile(profile)


def recommendation_prompt(profile: Dict[str, bool]) -> str:
    """The LLM-routed form of the recommendation (II-B4's first role)."""
    flags = ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in sorted(profile.items()))
    return (
        "Recommend a data preparation pipeline for a dataset with the "
        f"following profile: {flags}"
    )


def _compile_snippet(code: str, operation: str) -> Callable[[List[float]], List[float]]:
    """Compile an LLM-emitted snippet into the operation callable."""
    namespace: Dict[str, object] = {}
    try:
        exec(code, namespace)  # noqa: S102 - snippets come from the simulated LLM
    except SyntaxError as exc:
        raise PipelineError(f"snippet for {operation!r} does not compile: {exc}") from exc
    fn = namespace.get(operation)
    if not callable(fn):
        raise PipelineError(f"snippet does not define function {operation!r}")
    return fn  # type: ignore[return-value]


def _knn_accuracy(columns: List[List[float]], labels: Sequence[int], folds: int = 4) -> float:
    """Leave-fold-out 1-NN accuracy — the downstream task score."""
    n = len(labels)
    if n < folds:
        folds = max(2, n // 2)
    matrix = np.array(columns, dtype=np.float64).T  # (n, d)
    labels_arr = np.array(labels)
    hits = 0
    for fold in range(folds):
        test_idx = np.arange(fold, n, folds)
        train_idx = np.array([i for i in range(n) if i % folds != fold])
        for i in test_idx:
            distances = np.linalg.norm(matrix[train_idx] - matrix[i], axis=1)
            nearest = train_idx[int(np.argmin(distances))]
            hits += int(labels_arr[nearest] == labels_arr[i])
    return hits / n


class PipelineSearcher:
    """LLM-guided beam search over data-prep operator sequences."""

    def __init__(
        self,
        client: CompletionProvider,
        model: Optional[str] = None,
        max_steps: int = 3,
        beam_width: int = 3,
        llm_recommendation: bool = False,
    ) -> None:
        self.client = client
        self.model = model
        self.max_steps = max_steps
        self.beam_width = beam_width
        # When set, the candidate-op pruning itself goes through the LLM
        # (the paper's "LLMs recommend candidate pipelines"); a weak model
        # may then prune wrongly, which the beam search partially absorbs.
        self.llm_recommendation = llm_recommendation
        self._snippet_cache: Dict[str, PipelineStep] = {}

    def _candidate_operations(self, profile: Dict[str, bool]) -> List[str]:
        if not self.llm_recommendation:
            return recommend_operations(profile)
        completion = self.client.complete(recommendation_prompt(profile), model=self.model)
        from repro.llm.engines.codegen import SNIPPET_LIBRARY

        ops = [op.strip() for op in completion.text.split(",")]
        valid = [op for op in ops if op in SNIPPET_LIBRARY]
        return valid or recommend_operations(profile)

    def _synthesize_step(self, operation: str) -> PipelineStep:
        """One LLM call per distinct operation (cached — the paper's 'call
        LLMs once or a few times' economy)."""
        if operation in self._snippet_cache:
            return self._snippet_cache[operation]
        completion = self.client.complete(prep_code_prompt(operation), model=self.model)
        fn = _compile_snippet(completion.text, operation)
        step = PipelineStep(operation=operation, code=completion.text, fn=fn)
        self._snippet_cache[operation] = step
        return step

    def search(
        self,
        columns: Sequence[Sequence[Optional[float]]],
        labels: Sequence[int],
    ) -> PreparedPipeline:
        """Find the operator sequence maximizing downstream accuracy."""
        if not columns or not labels:
            raise ValueError("need non-empty columns and labels")
        candidates = self._candidate_operations(profile_dataset(columns))

        def safe_apply(cols: List[List[float]], step: PipelineStep) -> Optional[List[List[float]]]:
            try:
                return [step.fn(list(column)) for column in cols]
            except (PipelineError, TypeError, ValueError, ZeroDivisionError):
                return None

        # Columns may contain missing values; the scorer needs numbers, so a
        # pre-pass imputation is forced onto every candidate path if needed.
        start_cols = [list(c) for c in columns]
        if any(v is None for column in start_cols for v in column):
            impute = self._synthesize_step("impute_mean")
            start_state: Tuple[List[PipelineStep], List[List[float]]] = (
                [impute],
                [impute.fn(list(c)) for c in start_cols],
            )
        else:
            start_state = ([], [list(map(float, c)) for c in start_cols])

        baseline_score = _knn_accuracy(start_state[1], labels)
        beam: List[Tuple[float, List[PipelineStep], List[List[float]]]] = [
            (baseline_score, start_state[0], start_state[1])
        ]
        best = beam[0]
        for _depth in range(self.max_steps):
            expansions = []
            for score, steps, cols in beam:
                applied_ops = {s.operation for s in steps}
                for operation in candidates:
                    if operation in applied_ops:
                        continue
                    step = self._synthesize_step(operation)
                    next_cols = safe_apply(cols, step)
                    if next_cols is None:
                        continue
                    next_score = _knn_accuracy(next_cols, labels)
                    expansions.append((next_score, steps + [step], next_cols))
            if not expansions:
                break
            expansions.sort(key=lambda t: (-t[0], len(t[1])))
            beam = expansions[: self.beam_width]
            if beam[0][0] > best[0]:
                best = beam[0]
        score, steps, _cols = best
        return PreparedPipeline(steps=steps, score=score, baseline_score=baseline_score)
