"""Tests for the unified component registry (repro.registry)."""

import pytest

from repro.registry import Registry, RegistryError, namespaces, registry


def test_register_create_names_roundtrip():
    reg = Registry("widget")

    class Widget:
        def __init__(self, size=1):
            self.size = size

    reg.register("basic", Widget)
    assert reg.names() == ["basic"]
    assert "basic" in reg
    widget = reg.create("basic", size=3)
    assert isinstance(widget, Widget)
    assert widget.size == 3


def test_decorator_with_explicit_name_and_metadata():
    reg = Registry("widget")

    @reg.register("fancy", metadata={"tier": 2})
    class Fancy:
        pass

    assert reg.create("fancy").__class__ is Fancy
    assert reg.metadata("fancy") == {"tier": 2}


def test_bare_decorator_infers_name_attribute():
    reg = Registry("widget")

    @reg.register
    class Thing:
        name = "thing-a"

    @reg.register
    class Other:  # no name attribute: lowercased class name
        pass

    assert reg.names() == ["thing-a", "other"]


def test_unknown_name_raises_keyerror_listing_available():
    reg = Registry("widget")
    reg.register("only", lambda: None)
    with pytest.raises(RegistryError) as excinfo:
        reg.create("missing")
    assert "missing" in str(excinfo.value)
    assert "only" in str(excinfo.value)
    # RegistryError subclasses KeyError for backwards compatibility
    with pytest.raises(KeyError):
        reg.get("missing")


def test_double_registration_is_an_error_unless_overwritten():
    reg = Registry("widget")
    reg.register("dup", lambda: 1)
    with pytest.raises(ValueError):
        reg.register("dup", lambda: 2)
    reg.register("dup", lambda: 2, overwrite=True)
    assert reg.create("dup") == 2


def test_global_hub_returns_same_registry_per_namespace():
    a = registry("test-hub-namespace")
    b = registry("test-hub-namespace")
    assert a is b
    assert "test-hub-namespace" in namespaces()
    a.register("entry", lambda: 42)
    try:
        assert registry("test-hub-namespace").create("entry") == 42
    finally:
        a.unregister("entry")


def test_builtin_namespaces_are_populated():
    import repro.attacks  # noqa: F401
    import repro.arith  # noqa: F401
    import repro.datasets  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.nn.models  # noqa: F401

    assert set(registry("multiplier").names()) == {"exact", "bfloat16", "axfpm", "heap"}
    assert registry("attack").names() == [
        "fgsm", "pgd", "jsma", "cw", "deepfool", "lsa", "boundary", "hsj",
    ]
    assert set(registry("adder-cell").names()) == {
        "exact", "ama1", "ama2", "ama3", "ama4", "ama5",
    }
    assert set(registry("dataset").names()) == {"digits", "objects"}
    assert {"lenet5", "alexnet", "dq_cnn"} <= set(registry("model").names())
    assert {"exact", "da", "heap", "bfloat16"} <= set(registry("variant").names())
    assert {"lenet_digits", "alexnet_objects", "dq_objects", "substitute_digits"} <= set(
        registry("zoo").names()
    )

