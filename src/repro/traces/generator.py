"""Application model registry and trace generation driver."""

from __future__ import annotations

from .apps.amr import Boxlib
from .apps.base import AppModel
from .apps.benchpark import AMG2023, Kripke, Laghos
from .apps.cesar import MOCFE, NEKBONE, CrystalRouter
from .apps.designforward import AMG, MiniDFT, MiniFE, PARTISN, SNAP
from .apps.exact import CNS, MultiGrid
from .apps.exmatex import CMC, LULESH
from .events import Trace

__all__ = ["APP_MODELS", "app_names", "get_model", "generate_trace"]

#: All modelled proxy applications, keyed by short name (the rows of our
#: Table I reconstruction).
APP_MODELS: dict[str, AppModel] = {
    model.name: model for model in (
        AMG(), MiniDFT(), MiniFE(), PARTISN(), SNAP(),
        NEKBONE(), MOCFE(), CrystalRouter(),
        CNS(), MultiGrid(),
        LULESH(), CMC(),
        Boxlib(),
        AMG2023(), Kripke(), Laghos(),
    )
}


def app_names() -> list[str]:
    """All registered application names, registry order."""
    return list(APP_MODELS)


def get_model(name: str) -> AppModel:
    """Look up a model by short or full name (case-insensitive)."""
    needle = name.strip().lower()
    if needle in APP_MODELS:
        return APP_MODELS[needle]
    for model in APP_MODELS.values():
        if needle == model.full_name.lower():
            return model
    raise KeyError(f"unknown application {name!r}; "
                   f"choices: {app_names()}")


def generate_trace(app: str, n_ranks: int | None = None,
                   steps: int | None = None, seed: int = 0, *,
                   busiest_only: bool = False) -> Trace:
    """Generate a synthetic trace for the named application.

    ``busiest_only=True`` keeps only the busiest rank's rows (see
    :meth:`AppModel.generate`): the per-rank view the serve loadgen
    reads, not a trace for the whole-run analyses.

    >>> t = generate_trace("exmatex_lulesh", n_ranks=8, steps=2)
    >>> t.n_ranks
    8
    """
    return get_model(app).generate(n_ranks=n_ranks, steps=steps, seed=seed,
                                   busiest_only=busiest_only)
