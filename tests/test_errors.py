from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil

import pytest

import proctag
from proctag.errors import ProcTagError
from proctag.tagparse import GrammarViolation


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def _error_classes() -> list[type]:
    for module in pkgutil.iter_modules(proctag.__path__):
        importlib.import_module(f"proctag.{module.name}")
    ours = {c for c in _subclasses(ProcTagError) if c.__module__.startswith("proctag.")}
    return sorted(ours | {ProcTagError}, key=lambda c: (c.__module__, c.__qualname__))


def _instance(cls: type) -> ProcTagError:
    """An instance built with a distinct value for every constructor
    parameter, optional ones included."""
    if cls.__init__ is Exception.__init__:
        return cls("some message")
    params = [p for p in inspect.signature(cls.__init__).parameters.values()
              if p.kind is p.POSITIONAL_OR_KEYWORD][1:]
    return cls(*(f"value{i}" for i, _ in enumerate(params)))


ERROR_CLASSES = _error_classes()


def test_every_module_is_searched():
    names = {c.__name__ for c in ERROR_CLASSES}
    assert {"GrammarViolation", "MalformedLine", "MissingPage", "ConfigError",
            "BackendUnavailable", "ZeroVector", "DegenerateMarginals"} <= names


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__qualname__)
def test_round_trips_through_pickle(cls):
    # a worker process's error is pickled back to the parent and re-raised
    err = _instance(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_grammar_violation_keeps_its_fields():
    back = pickle.loads(pickle.dumps(GrammarViolation(1, "x", "r")))
    assert (back.line_no, back.line) == (1, "x")
    assert str(back) == "pseudo-code grammar violation on line 1: 'x' (r)"
