"""Name lookup for tests of models that are built in bulk, by column."""


def columns(model, *names: str) -> list[int]:
    """The column of each of ``names`` in ``model``; a name the model does
    not hold raises KeyError."""
    index = model._name_index()
    return [index[name] for name in names]
