"""Every memo in the package has a finite size."""

import importlib
import pkgutil

import galereg


def test_every_lru_cache_is_bounded():
    cached, unbounded = set(), set()
    for info in pkgutil.iter_modules(galereg.__path__):
        module = importlib.import_module(f"galereg.{info.name}")
        for name, obj in vars(module).items():
            params = getattr(obj, "cache_parameters", None)
            if params is None:
                continue
            cached.add(f"{obj.__module__}.{name}")
            if params()["maxsize"] is None:
                unbounded.add(f"{obj.__module__}.{name}")
    assert {"galereg.fiberhom._table", "galereg.fiberhom._fiber_ranks",
            "galereg.fiberhom._homology_ranks"} <= cached
    assert unbounded == set()
