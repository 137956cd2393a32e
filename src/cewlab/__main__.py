"""`python -m cewlab`: the same command line as the installed `cewlab` script."""
from .cli import run

if __name__ == "__main__":
    run()
