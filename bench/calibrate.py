"""A fixed piece of pure-Python work that does not touch rotknot.

run.py runs this file in a fresh interpreter between jobs, the way it
runs the jobs themselves, and scales every reported time by how long it
took, so that drift in the host's speed cancels out::

    python3 bench/calibrate.py
"""

from fractions import Fraction

ROUNDS = 100


def calibrate(rounds: int = ROUNDS) -> Fraction:
    """Dense products of two 12-term Fraction polynomials, folded back."""
    a = [Fraction(i + 1, i + 2) for i in range(12)]
    b = [Fraction(2 * i - 5, 3) for i in range(12)]
    for _ in range(rounds):
        out = [Fraction(0)] * 23
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        # fold back to 12 terms with bounded numerators and denominators
        a = [x - y for x, y in zip(out, out[11:])]
        a = [Fraction(x.numerator % 97, x.denominator % 89 + 1) for x in a]
    return sum(a)


if __name__ == "__main__":
    calibrate()
