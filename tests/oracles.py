"""String-based oracles that tests compare the package's integer code against."""


def common_prefix_length(a: str, b: str) -> int:
    """Number of leading bits shared by two equal-length name IDs."""
    if len(a) != len(b):
        raise ValueError("name IDs must have equal length")
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n
