"""The one shape of every `--json` payload: a record under the domsat/1 schema."""


def plain(x):
    """x with tuples and lists as lists and each rational as {"num", "den"}."""
    if isinstance(x, (tuple, list)):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if x is None or isinstance(x, (int, str)):
        return x
    if hasattr(x, "denominator"):  # a Fraction, told apart without importing fractions
        return {"num": x.numerator, "den": x.denominator}
    raise TypeError(f"no JSON form for {type(x).__name__}")


def record(fields: dict) -> dict:
    return {"schema": "domsat/1", **plain(fields)}
