import pickle

import numpy as np

from spheroid import errors
from spheroid.evolution import State


def test_errors_keep_their_contents_through_pickle():
    # a stability cell's error crosses from the child that stepped it by
    # pickle: type, message and attributes survive; the cause does not
    kinds = [obj for obj in vars(errors).values()
             if isinstance(obj, type) and issubclass(obj, errors.SpheroidError)]
    assert len(kinds) == 8
    for kind in kinds:
        err = kind("what went wrong")
        err.__cause__ = ValueError("the cause")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is kind
        assert str(back) == str(err)
        assert back.__cause__ is None

    back = pickle.loads(pickle.dumps(
        errors.ConvergenceError("no convergence", residual=2.5e-3)))
    assert str(back) == "no convergence" and back.residual == 2.5e-3

    last = State(t=0.4, z=0.25, c=np.linspace(0.5, 1.0, 5),
                 p=np.full(5, 0.75))
    back = pickle.loads(pickle.dumps(
        errors.NumericsError("step failed", last_state=last)))
    assert str(back) == "step failed"
    assert back.last_state.t == 0.4 and back.last_state.z == 0.25
    assert np.array_equal(back.last_state.c, last.c)
    assert np.array_equal(back.last_state.p, last.p)
    assert pickle.loads(pickle.dumps(
        errors.NumericsError("first"))).last_state is None
