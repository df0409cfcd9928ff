"""No module that runs the stacked passes takes operator norms one tensor
at a time: ``op_norms`` takes the whole stack.

The rule has one detector, ``per_object_calls`` of
``test_stacked_passes``, whose ``op_norm`` rows cover every module of
``src/wrp``.  This file keeps the per-tensor-norm gate of the five modules
that run the stacked passes under its own name, and pins the detector on
the source that the retired stack-only detector was pinned on.
"""

import pytest

from test_stacked_passes import LOOPED_MODULES, SRC, per_object_calls


@pytest.mark.parametrize("module", sorted(LOOPED_MODULES))
def test_no_per_tensor_norm_loop(module):
    assert per_object_calls((SRC / module).read_text(encoding="utf-8"), "op_norm") == []


def test_detector_flags_the_per_tensor_patterns():
    source = (
        "def grid_norms(t, out_rank):\n"
        "    return [op_norm(MultilinearMap(ti, out_rank)) for ti in t]\n"
        "def seminorm(wf, pts):\n"
        "    t = wf.map.tensors(pts, 1)\n"
        "    return grid_norms(t, 1)\n"
        "def runner(m, grid):\n"
        "    lhs = max(op_norm(MultilinearMap(t, 1)) for t in m.tensors(grid.points, 1))\n"
        "    for t in m.tensors(grid.points, 2):\n"
        "        lhs = max(lhs, jets.op_norm(MultilinearMap(t, 1)))\n"
        "    t2 = m.tensors(grid.points, 2)\n"
        "    return lhs + sum(op_norm(MultilinearMap(t, 1)) for t in t2)\n"
        "def fine(bilinears, m, grid):\n"
        "    sup_b = max(op_norm(MultilinearMap(b, 1)) for b in bilinears)\n"
        "    return sup_b * op_norms(m.tensors(grid.points, 1)).max()\n"
    )
    # lines 2, 7, 9 and 11 loop over a ``tensors`` stack; line 13 loops
    # over a list of bilinears, which the stack-only detector let pass
    assert per_object_calls(source, "op_norm") == [2, 7, 9, 11, 13]
