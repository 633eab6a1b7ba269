"""`python -m smibctrl` and the `smibctrl` console script.

BLAS is pinned to one thread (blas.pin_blas_threads) before numpy loads; a
count the caller sets explicitly wins.
"""

from .blas import pin_blas_threads

pin_blas_threads()

from .cli import main  # noqa: E402  (loads numpy, after the pin)

if __name__ == "__main__":
    main()
