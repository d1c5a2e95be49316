"""A call counter for tests that check how often a step runs."""


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls in the returned list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls
