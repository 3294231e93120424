"""Whole-step optimization passes over the recorded loop graph.

:func:`build_plan` turns the pending node list into an execution
:class:`Plan`:

1. **move+deposit rewrite** — a separate deposit loop following a
   ``particle_move`` over the same set becomes the move's fused deposit
   (the ``particle_move(deposit_kernel=...)`` hand fusion, derived
   automatically), when every intermediate node commutes with the move
   and the deposit passes the shared
   :func:`~repro.core.move.deposit_fusion_conflict` legality check;
2. **producer→consumer loop fusion** — maximal runs of adjacent loops
   over the same set with no dependence conflict
   (:func:`~repro.program.deps.fusion_conflict`) become one generated
   body via :func:`~repro.translator.codegen.generate_fused`;
3. **temp elimination** — single-group ``transient`` dats written before
   use become fusion-local buffers (their writeback is skipped);
4. **exchange coalescing** — adjacent halo pushes over the same plan
   merge into one frame per neighbour pair.

Whenever a pass is inapplicable the plan degrades to loop-by-loop
execution for that group and records why (``skips`` /
``Group.reason``) — the same fall-back discipline as the ``mp``
backend's small-loop dispatch.
"""
from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..core.move import MoveDeposit, MoveLoop, deposit_fusion_conflict
from ..core.types import AccessMode, IterateType
from ..translator.codegen import KernelLanguageError, generate_fused
from .deps import (fusion_conflict, merge_summary, node_pair_conflict,
                   summarize_args)
from .graph import ExchangeNode, LoopNode, MoveNode

__all__ = ["Group", "Plan", "build_plan"]


class Group:
    """One schedulable unit of the plan: a run of fusable loops, a move,
    or a batch of coalescible halo exchanges."""

    __slots__ = ("kind", "nodes", "fused", "reason", "gen", "n_param_index",
                 "eliminated_ids", "eliminated_names", "hoisted",
                 "rewritten")

    def __init__(self, kind: str, nodes: List):
        self.kind = kind                # "loops" | "move" | "exchange"
        self.nodes = nodes
        self.fused = False
        self.reason: Optional[str] = None
        self.gen = None                 # GeneratedKernel for fused loops
        self.n_param_index = 0
        self.eliminated_ids: frozenset = frozenset()
        self.eliminated_names: List[str] = []
        self.hoisted = 0                # indirect gathers shared in-group
        self.rewritten = False          # move carries a rewritten deposit

    @property
    def name(self) -> str:
        return "+".join(n.name for n in self.nodes)

    def signature(self) -> Tuple:
        return tuple(n.signature() for n in self.nodes)


class Plan:
    """The optimized schedule for one flush of the pending node list."""

    __slots__ = ("groups", "rewrites", "skips", "signature", "mode")

    def __init__(self, groups, rewrites, skips, signature, mode):
        self.groups: List[Group] = groups
        self.rewrites: List[str] = rewrites
        self.skips: List[Tuple[str, str, str]] = skips
        self.signature = signature
        self.mode = mode


def _loop_written_ids(node: LoopNode) -> frozenset:
    return frozenset(id(a.dat) for a in node.loop.args
                     if a.access is not AccessMode.READ)


def _node_written_ids(node) -> frozenset:
    if isinstance(node, LoopNode):
        return _loop_written_ids(node)
    return node.touched_ids             # moves/exchanges: be conservative


def _move_written_ids(node: MoveNode) -> frozenset:
    """What a move writes: every particle dat (hole filling permutes the
    whole set), the p2c map, the set itself, plus any non-READ args."""
    loop = node.loop
    written = {id(loop.pset), id(loop.p2c_map)}
    for dat in loop.pset.dats:
        written.add(id(dat))
    for a in loop.args:
        if a.access is not AccessMode.READ:
            written.add(id(a.dat))
    return frozenset(written)


def _deposit_shared_dat_conflict(mv: MoveLoop, dloop) -> Optional[str]:
    """Why the deposit loop cannot fire inside the move's frontier walk.

    Direct (particle-row) sharing is safe: a lane's row is final when it
    settles and the fused deposit fires after that round's writeback.
    Any dat the deposit addresses *indirectly* must be untouched by the
    move itself — a mid-walk deposit would expose partial accumulations
    to later move rounds (and vice versa)."""
    move_touch = {id(a.dat) for a in mv.args}
    for pos, a in enumerate(dloop.args):
        if a.is_global:
            continue
        if a.is_indirect and id(a.dat) in move_touch:
            return (f"move kernel touches {a.dat.name!r} which the deposit "
                    "addresses through the cell")
    return None


def _rewrite_move_deposits(nodes: List, rewrites: List[str],
                           skips: List[Tuple[str, str, str]]) -> List:
    """PR-4's hand fusion as a program rewrite: hoist a bare move past
    commuting nodes and absorb the next particle loop as its ``done``
    deposit.  Mutates matched :class:`MoveNode` objects in place so any
    outstanding :class:`~repro.core.move.LazyMoveResult` stays valid."""
    out = list(nodes)
    i = 0
    while i < len(out):
        node = out[i]
        if (not isinstance(node, MoveNode) or node.loop.deposit is not None
                or node.ctx is None
                or getattr(node.ctx, "backend_name", "") != "vec"):
            i += 1
            continue
        mv = node.loop
        m_written = _move_written_ids(node)
        j = i + 1
        while j < len(out):
            cand = out[j]
            if (isinstance(cand, LoopNode) and cand.ctx is node.ctx
                    and cand.loop.iterset is mv.pset
                    and cand.loop.iterate_type is IterateType.ALL):
                reason = deposit_fusion_conflict(cand.loop.args, mv.pset)
                if reason is None:
                    reason = _deposit_shared_dat_conflict(mv, cand.loop)
                if reason is None:
                    try:
                        cand.loop.kernel.ir()   # must be translatable
                    except Exception as exc:
                        reason = f"deposit kernel not translatable: {exc}"
                if reason is None:
                    node.loop = MoveLoop(
                        mv.kernel, mv.name, mv.pset, mv.c2c_map, mv.p2c_map,
                        mv.args, max_hops=mv.max_hops,
                        deposit=MoveDeposit(cand.loop.kernel,
                                            cand.loop.args))
                    node.touched_ids = node.touched_ids | cand.touched_ids
                    node.rewritten = True
                    out.pop(j)
                    out.pop(i)
                    out.insert(j - 1, node)
                    rewrites.append(f"{mv.name}+{cand.loop.name} -> "
                                    "move deposit")
                else:
                    skips.append((mv.name, cand.loop.name,
                                  f"deposit rewrite: {reason}"))
                break
            cand_written = _node_written_ids(cand)
            if node_pair_conflict(node.touched_ids, m_written,
                                  cand.touched_ids, cand_written):
                break                    # move cannot hoist past this node
            j += 1
        i += 1
    return out


def _loops_compatible(group: Group, cand: LoopNode) -> Optional[str]:
    head = group.nodes[0]
    if cand.ctx is not head.ctx:
        return "different execution contexts"
    if cand.loop.iterset is not head.loop.iterset:
        return (f"different iteration sets ({head.loop.iterset.name!r} vs "
                f"{cand.loop.iterset.name!r})")
    if cand.loop.iterate_type is not head.loop.iterate_type:
        return "different iterate types"
    if cand.loop.has_indirect_inc != head.loop.has_indirect_inc:
        return "different halo bounds (indirect-INC vs not)"
    return None


_IDENT = re.compile(r"\W+")


def _compile_group(group: Group, gen_cache: Dict) -> None:
    """Attempt fused codegen for a multi-loop group (cached by group
    signature); on failure the group stays loop-by-loop with a reason."""
    sig = group.signature()
    hit = gen_cache.get(sig)
    if hit is None:
        hit = _compile_group_uncached(group)
        gen_cache[sig] = hit
    status, payload, n_param_index = hit
    if status == "ok":
        group.fused = True
        group.gen = payload
        group.n_param_index = n_param_index
    else:
        group.fused = False
        group.reason = payload


def _compile_group_uncached(group: Group) -> Tuple:
    slots = [(node, a) for node in group.nodes for a in node.loop.args]
    n_param_index = -1
    for k, (_node, a) in enumerate(slots):
        if not (a.is_global and a.access is AccessMode.READ):
            n_param_index = k
            break
    if n_param_index < 0:
        return ("fail", "no batch-shaped argument to size the fused body",
                0)
    name = "Fused_" + "_".join(_IDENT.sub("_", n.name)
                               for n in group.nodes)
    kernels = [node.loop.kernel for node in group.nodes]
    try:
        gen = generate_fused(name, kernels, n_param_index)
    except (KernelLanguageError, SyntaxError, RuntimeError) as exc:
        return ("fail", f"fused codegen failed: {exc}", 0)
    return ("ok", gen, n_param_index)


def _mark_eliminated(group: Group, plan_dat_counts: Dict[int, int]) -> None:
    """Transient dats whose every plan access is direct, inside this one
    fused group, and written before read become fusion-local: their
    writeback is skipped."""
    if not group.fused:
        return
    state: Dict[int, dict] = {}
    for node in group.nodes:
        for a in node.loop.args:
            if a.is_global or not getattr(a.dat, "transient", False):
                continue
            key = id(a.dat)
            st = state.setdefault(key, {"count": 0, "all_direct": True,
                                        "first_write": None,
                                        "name": a.dat.name})
            st["count"] += 1
            if a.is_indirect:
                st["all_direct"] = False
            if st["first_write"] is None:
                st["first_write"] = (a.access is AccessMode.WRITE)
    dead = set()
    names = []
    for key, st in state.items():
        if (st["all_direct"] and st["first_write"]
                and st["count"] == plan_dat_counts.get(key, 0)):
            dead.add(key)
            names.append(st["name"])
    group.eliminated_ids = frozenset(dead)
    group.eliminated_names = sorted(names)


def _count_hoisted(group: Group) -> int:
    """Indirect READ gathers that repeat within the group — each repeat
    is one gather the fused executor serves from its cache."""
    seen = set()
    hoisted = 0
    for node in group.nodes:
        for a in node.loop.args:
            if a.is_global or not a.is_indirect \
                    or a.access is not AccessMode.READ:
                continue
            key = (id(a.dat), a.kind,
                   id(a.map) if a.map is not None else 0,
                   a.map_idx if a.map_idx is not None else -1,
                   id(a.p2c) if a.p2c is not None else 0)
            if key in seen:
                hoisted += 1
            else:
                seen.add(key)
    return hoisted


def build_plan(nodes: List, mode: str, gen_cache: Dict) -> Plan:
    """Schedule the pending nodes: rewrite, group, compile, annotate."""
    signature = tuple(n.signature() for n in nodes)
    rewrites: List[str] = []
    skips: List[Tuple[str, str, str]] = []
    if mode == "fuse":
        nodes = _rewrite_move_deposits(nodes, rewrites, skips)

    plan_dat_counts: Dict[int, int] = {}
    for node in nodes:
        if isinstance(node, LoopNode):
            for a in node.loop.args:
                if not a.is_global:
                    key = id(a.dat)
                    plan_dat_counts[key] = plan_dat_counts.get(key, 0) + 1
        else:
            for key in node.touched_ids:
                plan_dat_counts[key] = plan_dat_counts.get(key, 0) - 10**6

    groups: List[Group] = []
    cur: Optional[Group] = None
    cur_summary: Optional[Dict] = None

    def close():
        nonlocal cur, cur_summary
        cur = None
        cur_summary = None

    for node in nodes:
        if isinstance(node, MoveNode):
            g = Group("move", [node])
            g.rewritten = bool(getattr(node, "rewritten", False))
            g.fused = node.loop.deposit is not None
            groups.append(g)
            close()
            continue
        if isinstance(node, ExchangeNode):
            if (cur is not None and cur.kind == "exchange"
                    and mode == "fuse"
                    and cur.nodes[0].op == node.op
                    and cur.nodes[0].plan is node.plan
                    and cur.nodes[0].comm is node.comm):
                cur.nodes.append(node)
                cur.fused = True
                continue
            cur = Group("exchange", [node])
            cur_summary = None
            groups.append(cur)
            continue
        # -- LoopNode ------------------------------------------------------
        summary = summarize_args(node.loop.args)
        if cur is not None and cur.kind == "loops" and mode == "fuse":
            reason = _loops_compatible(cur, node)
            if reason is None:
                reason = fusion_conflict(cur_summary, summary)
            if reason is None:
                cur.nodes.append(node)
                merge_summary(cur_summary, summary)
                continue
            skips.append((cur.nodes[-1].name, node.name, reason))
        cur = Group("loops", [node])
        cur_summary = {}
        merge_summary(cur_summary, summary)
        groups.append(cur)

    for g in groups:
        if g.kind != "loops" or len(g.nodes) < 2:
            continue
        if mode != "fuse":
            g.reason = f"program mode {mode!r}"
            continue
        if getattr(g.nodes[0].ctx, "backend_name", "") != "vec":
            g.reason = (f"backend "
                        f"{getattr(g.nodes[0].ctx, 'backend_name', '?')!r} "
                        "executes loop-by-loop")
            continue
        _compile_group(g, gen_cache)
        if g.fused:
            _mark_eliminated(g, plan_dat_counts)
            g.hoisted = _count_hoisted(g)

    return Plan(groups, rewrites, skips, signature, mode)
