"""Canonical-loop lowering: induction variables, invariant hoisting,
strength reduction.

For a loop sema marked canonical — ``for (long j = e0; j < e1; j = j + s)``
with ``j`` unmodified in the body — the lowering:

1. evaluates ``e0``/``e1`` in the preheader (bound hoisting);
2. finds *reducible* array accesses, i.e. ``arr[j + inv + c]`` where ``inv``
   is loop-invariant and ``c`` a small constant, and groups them into
   address streams;
3. materializes each stream per the ISA's style —

   * RISC-V: one **pointer register** per ``(array, inv)`` stream, bumped by
     ``s*8`` per iteration, accesses via immediate-offset ``fld/fsd`` with
     displacement ``c*8``; when the IV has no other use the exit test runs
     on a precomputed **end pointer** (``bne a5, s0`` — Listing 2),
   * AArch64: one **adjusted base register** per ``(array, inv, c)`` stream;
     accesses are register-offset ``ldr/str [base, xj, lsl #3]`` and the IV
     register stays live (Listing 1);

4. hoists loop-invariant global-scalar reads into registers;
5. emits a bottom exit test whose shape is the §3.3 comparison point (fused
   branch vs ``cmp``+``b.cond`` vs GCC 9.2's ``sub``/``subs`` pair).

Loops that do not match (or when register pools run dry) degrade gracefully
to generic addressing — exactly what a real compiler does under pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import CompilerError
from repro.compiler import ast_nodes as A
from repro.compiler.exprcache import expr_key
from repro.compiler.sema import assigned_names, contains_call

ELEM = 8


@dataclass
class AccessGroup:
    """One strength-reducible address stream (see module docstring).

    ``style`` is how the body addresses the stream: ``"ptr"`` — a pointer
    register bumped per iteration, accesses via immediate-offset load/store
    with displacement ``c*8`` (RISC-V always; AArch64 for strided
    record/AoS streams, i.e. ``scale > 1``, where its immediate-offset
    forms are what GCC emits) — or ``"regoff"`` — AArch64's register-offset
    ``[base, Xi, lsl #3]`` with the constant folded into an adjusted base.
    """

    array: str
    inv_key: tuple | None
    inv_expr: A.Expr | None
    const_off: int            # 'regoff': the folded c; 'ptr': 0
    scale: int = 1            # element stride per IV step (AoS field count)
    style: str = "ptr"
    reg: str = ""
    offsets: set[int] = field(default_factory=set)


@dataclass
class LoopPlan:
    """Preheader decisions consulted by body codegen via _reduced_access."""

    iv_name: str = ""
    iv_reg: str = ""
    step: int = 1
    bound_reg: str | None = None
    bound_const: int | None = None
    groups: dict[tuple, AccessGroup] = field(default_factory=dict)
    end_ptr_reg: str | None = None
    test_group_reg: str | None = None
    iv_in_regs: bool = True   # False when the IV was eliminated (pointer exit)


def _const_value(expr: A.Expr) -> int | None:
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.Unary) and expr.op == "-":
        inner = _const_value(expr.operand)
        return None if inner is None else -inner
    return None


def _flatten_sum(expr: A.Expr) -> list[A.Expr] | None:
    """Flatten nested '+' into a term list (long-typed only)."""
    if isinstance(expr, A.Binary) and expr.op == "+" and expr.type == A.LONG:
        left = _flatten_sum(expr.left)
        right = _flatten_sum(expr.right)
        if left is None or right is None:
            return None
        return left + right
    return [expr]


def _mentions_var(expr: A.Expr | None, name: str) -> bool:
    if expr is None:
        return False
    if isinstance(expr, A.VarRef):
        return expr.name == name
    if isinstance(expr, (A.Unary, A.Cast)):
        return _mentions_var(expr.operand, name)
    if isinstance(expr, (A.Binary, A.Logical)):
        return _mentions_var(expr.left, name) or _mentions_var(expr.right, name)
    if isinstance(expr, A.ArrayRef):
        return _mentions_var(expr.index, name)
    if isinstance(expr, A.Call):
        return any(_mentions_var(a, name) for a in expr.args)
    return False


def _is_invariant(expr: A.Expr, banned: set[str], globals_ok: bool = True) -> bool:
    """Pure and not depending on anything assigned in the loop."""
    if isinstance(expr, A.IntLit):
        return True
    if isinstance(expr, A.VarRef):
        return expr.name not in banned
    if isinstance(expr, A.Unary):
        return expr.op in ("-", "~") and _is_invariant(expr.operand, banned)
    if isinstance(expr, A.Binary):
        return _is_invariant(expr.left, banned) and _is_invariant(expr.right, banned)
    return False


def _iv_term_scale(term: A.Expr, iv: str) -> int | None:
    """Scale of an IV term: ``IV`` → 1, ``IV*k``/``k*IV`` → k, else None."""
    if isinstance(term, A.VarRef) and term.name == iv:
        return 1
    if isinstance(term, A.Binary) and term.op == "*":
        left, right = term.left, term.right
        if isinstance(left, A.VarRef) and left.name == iv:
            k = _const_value(right)
            return k if k is not None and k > 0 else None
        if isinstance(right, A.VarRef) and right.name == iv:
            k = _const_value(left)
            return k if k is not None and k > 0 else None
    return None


def match_access(index: A.Expr, iv: str, banned: set[str]):
    """Match ``index`` against ``IV*scale + inv + c``.

    Returns ``(inv_expr_or_None, c, scale)`` or None when the access is not
    reducible. ``banned`` is the set of names assigned in the loop (the IV
    itself is excluded by construction). ``scale`` covers AoS/record
    layouts (``atoms[ip*6 + field]``).
    """
    terms = _flatten_sum(index)
    if terms is None:
        return None
    iv_terms = [
        (t, s) for t in terms
        if (s := _iv_term_scale(t, iv)) is not None
    ]
    if len(iv_terms) != 1:
        return None
    iv_term, scale = iv_terms[0]
    rest = [t for t in terms if t is not iv_term]
    const = 0
    inv_terms: list[A.Expr] = []
    for term in rest:
        value = _const_value(term)
        if value is not None:
            const += value
        elif _is_invariant(term, banned) and not _mentions_var(term, iv):
            inv_terms.append(term)
        else:
            return None
    if not inv_terms:
        return None, const, scale
    inv: A.Expr = inv_terms[0]
    for term in inv_terms[1:]:
        combined = A.Binary(line=inv.line, op="+", left=inv, right=term)
        combined.type = A.LONG
        inv = combined
    return inv, const, scale


def _body_has_loops(stmts: list[A.Stmt]) -> bool:
    """True if any nested For/While loop exists under ``stmts``."""
    for stmt in stmts:
        if isinstance(stmt, (A.ForStmt, A.WhileStmt)):
            return True
        if isinstance(stmt, A.IfStmt):
            if _body_has_loops(stmt.then_body) or _body_has_loops(stmt.else_body):
                return True
        elif isinstance(stmt, (A.RegionStmt, A.BlockStmt)):
            if _body_has_loops(stmt.body):
                return True
    return False


def _collect_accesses(stmts: list[A.Stmt], sink: list[A.ArrayRef]) -> None:
    """All ArrayRefs at this loop level (descends ifs/regions, not loops)."""

    def from_expr(expr: A.Expr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, A.ArrayRef):
            sink.append(expr)
            from_expr(expr.index)
        elif isinstance(expr, (A.Unary, A.Cast)):
            from_expr(expr.operand)
        elif isinstance(expr, (A.Binary, A.Logical)):
            from_expr(expr.left)
            from_expr(expr.right)
        elif isinstance(expr, A.Call):
            for arg in expr.args:
                from_expr(arg)

    for stmt in stmts:
        if isinstance(stmt, A.AssignStmt):
            if isinstance(stmt.target, A.ArrayRef):
                sink.append(stmt.target)
                from_expr(stmt.target.index)
            from_expr(stmt.value)
        elif isinstance(stmt, A.DeclStmt):
            from_expr(stmt.init)
        elif isinstance(stmt, A.ExprStmt):
            from_expr(stmt.expr)
        elif isinstance(stmt, A.ReturnStmt):
            from_expr(stmt.value)
        elif isinstance(stmt, A.IfStmt):
            from_expr(stmt.cond)
            _collect_accesses(stmt.then_body, sink)
            _collect_accesses(stmt.else_body, sink)
        elif isinstance(stmt, (A.RegionStmt, A.BlockStmt)):
            _collect_accesses(stmt.body, sink)
        # nested For/While bodies belong to their own lowering


def _global_scalar_reads(stmts: list[A.Stmt], symbols, sink: set[str]) -> None:
    """Global scalars read anywhere under ``stmts`` (descends everything)."""

    def from_expr(expr: A.Expr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, A.VarRef):
            info = symbols.globals.get(expr.name)
            if info is not None and not info.is_array:
                sink.add(expr.name)
        elif isinstance(expr, (A.Unary, A.Cast)):
            from_expr(expr.operand)
        elif isinstance(expr, (A.Binary, A.Logical)):
            from_expr(expr.left)
            from_expr(expr.right)
        elif isinstance(expr, A.ArrayRef):
            from_expr(expr.index)
        elif isinstance(expr, A.Call):
            for arg in expr.args:
                from_expr(arg)

    for stmt in stmts:
        if isinstance(stmt, A.AssignStmt):
            from_expr(stmt.value)
            if isinstance(stmt.target, A.ArrayRef):
                from_expr(stmt.target.index)
        elif isinstance(stmt, A.DeclStmt):
            from_expr(stmt.init)
        elif isinstance(stmt, A.ExprStmt):
            from_expr(stmt.expr)
        elif isinstance(stmt, A.ReturnStmt):
            from_expr(stmt.value)
        elif isinstance(stmt, A.IfStmt):
            from_expr(stmt.cond)
            _global_scalar_reads(stmt.then_body, symbols, sink)
            _global_scalar_reads(stmt.else_body, symbols, sink)
        elif isinstance(stmt, A.WhileStmt):
            from_expr(stmt.cond)
            _global_scalar_reads(stmt.body, symbols, sink)
        elif isinstance(stmt, A.ForStmt):
            for inner in ([stmt.init] if stmt.init else []) + (
                [stmt.update] if stmt.update else []
            ):
                _global_scalar_reads([inner], symbols, sink)
            from_expr(stmt.cond)
            _global_scalar_reads(stmt.body, symbols, sink)
        elif isinstance(stmt, (A.RegionStmt, A.BlockStmt)):
            _global_scalar_reads(stmt.body, symbols, sink)


class LoopLoweringMixin:
    """Canonical-for lowering; mixed into :class:`CodeGen`."""

    # ---- hooks the ISA back ends provide (beyond CodeGen's) ---------------

    def emit_bump(self, reg: str, byte_step: int) -> None:
        raise NotImplementedError

    # ---- access resolution used by gen_array_load/store --------------------

    def _reduced_access(self, expr: A.ArrayRef):
        """If ``expr`` belongs to the innermost plan's streams, return
        (group, displacement)."""
        if not self._loop_plans:
            return None
        plan = self._loop_plans[-1]
        banned = self._loop_banned[-1]
        match = match_access(expr.index, plan.iv_name, banned)
        if match is None:
            return None
        inv, const, scale = match
        key, disp, _style = self._group_key(expr.name, inv, const, scale)
        group = plan.groups.get(key)
        if group is None:
            return None
        return group, disp

    def _group_key(self, array: str, inv: A.Expr | None, const: int,
                   scale: int):
        """(key, displacement, style) for one access. See AccessGroup."""
        inv_key = None if inv is None else expr_key(inv)
        if inv is not None and inv_key is None:
            return ("__unreducible__",), 0, "ptr"
        if self.uses_pointer_bump() or scale != 1:
            # pointer stream with the constant as a load/store displacement
            return (array, inv_key, scale, "ptr"), const * ELEM, "ptr"
        # AArch64 unit-stride: register-offset with the constant folded into
        # an adjusted base
        return (array, inv_key, const, "regoff"), 0, "regoff"

    # ---- the lowering -------------------------------------------------------

    def gen_canonical_for(self, stmt: A.ForStmt) -> None:
        iv = stmt.iv_name
        step = stmt.iv_step
        assert iv is not None and step is not None

        banned = assigned_names(stmt.body)
        banned.add(iv)
        body_has_calls = contains_call(stmt.body)
        if body_has_calls:
            # calls may modify globals: treat all global scalars as assigned
            banned |= {
                name for name, info in self.symbols.globals.items()
                if not info.is_array
            }

        # -- IV binding and init ----------------------------------------------
        iv_is_decl = isinstance(stmt.init, A.DeclStmt)
        if iv_is_decl:
            binding = self._bind_var(iv, False, stmt.line)
        else:
            binding = self.bindings.get(iv)
            if binding is None:
                # IV is a global scalar: too exotic for the canonical path
                self.gen_generic_for(stmt)
                return
        if binding.kind != "reg":
            # no register for the IV: fall back to the generic lowering
            # (which re-binds the induction variable itself)
            if iv_is_decl:
                del self.bindings[iv]
            self.gen_generic_for(stmt)
            return
        iv_reg = binding.reg

        init_expr = stmt.init.init if iv_is_decl else stmt.init.value
        init_const = _const_value(init_expr)
        iv_init_deferred = False
        if init_const is not None and _const_value(stmt.cond.right) is not None:
            # defer: a pointer-exit loop never reads the IV register, so the
            # li would be dead there (decided below; safe because with both
            # ends constant no zero-trip guard reads the IV either)
            iv_init_deferred = True
        elif init_const is not None:
            self.emit_li(iv_reg, init_const)
        else:
            value = self.gen_expr(init_expr)
            if value.reg != iv_reg:
                self.emit_move(iv_reg, value.reg, False)
            self.release(value)

        # -- bound --------------------------------------------------------
        bound_expr = stmt.cond.right
        strict = stmt.cond.op == "<"
        bound_const = _const_value(bound_expr)
        if not strict and bound_const is not None:
            # normalize j <= C to j < C+1
            bound_const += 1
            strict = True
        plan = LoopPlan(iv_name=iv, iv_reg=iv_reg, step=step)
        released: list[tuple[str, bool]] = []

        if bound_const is None:
            reg = self.alloc_var_reg(False)
            if reg is None:
                raise CompilerError("register pressure: no bound register",
                                    stmt.line)
            bvalue = self.gen_expr(bound_expr)
            if not strict:
                # j <= e: bound = e + 1
                if not self.emit_binop_long_imm("+", reg, bvalue.reg, 1):
                    self.emit_li(reg, 1)
                    self.emit_binop_long("+", reg, bvalue.reg, reg)
                strict = True
            elif bvalue.reg != reg:
                self.emit_move(reg, bvalue.reg, False)
            self.release(bvalue)
            plan.bound_reg = reg
            released.append((reg, False))
        else:
            # constant bound: materialization decided after the exit
            # strategy is known (a pointer-exit loop never reads it)
            plan.bound_const = bound_const

        # -- zero-trip guard ------------------------------------------------
        exit_label = self.new_label("loopend")
        if init_const is not None and bound_const is not None:
            if init_const >= bound_const:
                # statically empty loop
                self.emit_label(exit_label)
                self._release_loop_regs(released, iv_is_decl, iv, binding)
                return
        else:
            self._emit_guard(plan, iv_reg, exit_label, stmt.line)

        # -- access grouping ----------------------------------------------
        accesses: list[A.ArrayRef] = []
        _collect_accesses(stmt.body, accesses)
        for access in accesses:
            match = match_access(access.index, iv, banned)
            if match is None:
                continue
            inv, const, scale = match
            key, disp, style = self._group_key(access.name, inv, const, scale)
            if key == ("__unreducible__",):
                continue
            group = plan.groups.get(key)
            if group is None:
                group = AccessGroup(
                    array=access.name,
                    inv_key=None if inv is None else expr_key(inv),
                    inv_expr=inv,
                    const_off=const if style == "regoff" else 0,
                    scale=scale,
                    style=style,
                )
                plan.groups[key] = group
            group.offsets.add(disp)

        # displacement sanity for pointer streams (immediate-offset ranges)
        for key in list(plan.groups):
            group = plan.groups[key]
            if group.style == "ptr" and any(
                not -2048 <= d < 2048 for d in group.offsets
            ):
                del plan.groups[key]

        # allocate stream registers, leaving headroom for LICM/CSE pinning.
        # Under the gcc12 profile, repeated non-invariant index expressions
        # in the body will want pin registers, so trade a couple of address
        # streams for them (newer GCC makes the same kind of call).
        spare = 2
        if self.cse.enabled:
            from repro.compiler.exprcache import count_repeated_keys, key_vars

            counts: dict[tuple, int] = {}
            count_repeated_keys(stmt.body, counts)
            # demand: repeated keys that are neither loop-invariant (LICM's
            # job) nor IV-indexed (strength reduction's job)
            pin_demand = sum(
                1 for key, n in counts.items()
                if n >= 2
                and (key_vars(key) & banned)
                and iv not in key_vars(key)
            )
            spare += min(pin_demand, 2)
        max_streams = self.profile.max_streams
        allocated = 0
        for key in list(plan.groups):
            if len(self.var_int_pool) <= spare or (
                max_streams is not None and allocated >= max_streams
            ):
                del plan.groups[key]
                continue
            reg = self.alloc_var_reg(False)
            plan.groups[key].reg = reg
            released.append((reg, False))
            allocated += 1

        # -- does the body still need the IV register? ------------------------
        reduced_indexes = {
            id(a.index) for a in accesses
            if self._reduced_for_plan(a, plan, banned)
        }
        iv_used_elsewhere = self._iv_used_outside(stmt.body, iv, reduced_indexes)

        # -- preheader: stream setup ---------------------------------------
        for group in plan.groups.values():
            inv_reg = None
            inv_value = None
            if group.inv_expr is not None:
                inv_value = self.gen_expr(group.inv_expr)
                inv_reg = inv_value.reg
            if group.style == "ptr":
                const_elems = (init_const or 0) * group.scale + group.const_off
                extra = iv_reg if init_const is None else None
                # pointer = &arr + (init*scale + inv)*8 (+ iv*scale*8 when
                # the initial IV value is not a compile-time constant)
                self._emit_stream_init(group.reg, group.array, const_elems,
                                       inv_reg, extra, group.scale)
            else:
                self._emit_stream_init(group.reg, group.array, group.const_off,
                                       inv_reg, None)
            if inv_value is not None:
                self.release(inv_value)

        # -- pointer exit (RISC-V shape) -----------------------------------
        use_pointer_exit = (
            self.uses_pointer_bump()
            and step == 1
            and strict
            and iv_is_decl
            and not iv_used_elsewhere
            and plan.groups
        )
        if use_pointer_exit:
            first_key = next(iter(plan.groups))
            test_group = plan.groups[first_key]
            end_reg = self.alloc_var_reg(False)
            if end_reg is None:
                use_pointer_exit = False
            else:
                released.append((end_reg, False))
                inv_reg = None
                inv_value = None
                if test_group.inv_expr is not None:
                    inv_value = self.gen_expr(test_group.inv_expr)
                    inv_reg = inv_value.reg
                if bound_const is not None:
                    self._emit_stream_init(
                        end_reg, test_group.array,
                        bound_const * test_group.scale, inv_reg, None,
                    )
                else:
                    self._emit_stream_init(
                        end_reg, test_group.array, 0, inv_reg,
                        plan.bound_reg, test_group.scale,
                    )
                if inv_value is not None:
                    self.release(inv_value)
                plan.end_ptr_reg = end_reg
                plan.test_group_reg = test_group.reg
                plan.iv_in_regs = False

        if iv_init_deferred and not (use_pointer_exit and iv_is_decl):
            self.emit_li(iv_reg, init_const)

        # -- constant bound: materialize now if the exit test wants a register
        if (
            plan.bound_const is not None
            and plan.end_ptr_reg is None
            and self._materialize_bound(plan.bound_const)
        ):
            reg = self.alloc_var_reg(False)
            if reg is None:
                raise CompilerError("register pressure: no bound register",
                                    stmt.line)
            self.emit_li(reg, plan.bound_const)
            plan.bound_reg = reg
            released.append((reg, False))

        # -- loop-invariant code motion -----------------------------------
        # Register-hungry hoists run only in innermost loops: registers
        # spent at an outer level starve the inner loops where instruction
        # counts actually multiply.
        innermost = not _body_has_loops(stmt.body)
        hoists = self._hoist_globals(stmt.body, banned, body_has_calls)
        fp_hoists = self._hoist_fp_consts(stmt.body) if innermost else []
        licm_hoists = (
            self._hoist_invariant_exprs(stmt.body, banned, reduced_indexes)
            if innermost else []
        )
        base_hoists = (
            self._hoist_array_bases(accesses, plan, banned)
            if innermost else []
        )

        # -- body ---------------------------------------------------------
        head = self.new_label("loop")
        cont = self.new_label("cont")
        self.cse_barrier()
        self.emit_label(head)
        self._loop_plans.append(plan)
        self._loop_banned.append(banned)
        self.loop_stack.append((cont, exit_label))
        self.gen_block(stmt.body)
        self.loop_stack.pop()
        self._loop_banned.pop()
        self._loop_plans.pop()
        self.emit_label(cont)
        self.cse_barrier()

        # -- bumps and exit test --------------------------------------------
        for group in plan.groups.values():
            if group.style == "ptr":
                self.emit_bump(group.reg, step * group.scale * ELEM)
        if not use_pointer_exit:
            ok = self.emit_binop_long_imm("+", iv_reg, iv_reg, step)
            if not ok:
                temp = self.int_temps.acquire(stmt.line)
                self.emit_li(temp, step)
                self.emit_binop_long("+", iv_reg, iv_reg, temp)
                self.int_temps.release(temp)
        self.loop_exit_test(plan, head, strict)
        self.emit_label(exit_label)
        self.cse_barrier()

        self._unhoist_array_bases(base_hoists)
        self._unhoist_invariant_exprs(licm_hoists)
        self._unhoist_fp_consts(fp_hoists)
        self._unhoist(hoists)
        self._release_loop_regs(released, iv_is_decl, iv, binding)

    # ---- helpers -----------------------------------------------------------

    def _materialize_bound(self, bound_const: int) -> bool:
        """Should a constant bound live in a register? RISC-V branches always
        need one; AArch64 answers per profile (the §3.3 idiom)."""
        raise NotImplementedError

    def _emit_guard(self, plan: LoopPlan, iv_reg: str, exit_label: str,
                    line: int) -> None:
        """Jump straight to exit when the loop would run zero times."""
        if plan.bound_reg is not None:
            self.emit_compare_branch(">=", iv_reg, plan.bound_reg, exit_label,
                                     False)
        else:
            temp = self.int_temps.acquire(line)
            self.emit_li(temp, plan.bound_const)
            self.emit_compare_branch(">=", iv_reg, temp, exit_label, False)
            self.int_temps.release(temp)

    def _emit_stream_init(self, reg: str, array: str, const_elems: int,
                          inv_reg: str | None, extra_reg: str | None,
                          extra_scale: int = 1) -> None:
        """reg = &array + (const_elems + inv_reg + extra_reg*extra_scale)*8."""
        self.emit_global_addr(reg, array)
        if inv_reg is not None:
            self.emit_shift_add(reg, inv_reg, 1)
        if extra_reg is not None:
            self.emit_shift_add(reg, extra_reg, extra_scale)
        if const_elems:
            if not self.emit_binop_long_imm("+", reg, reg, const_elems * ELEM):
                temp = self.int_temps.acquire(0)
                self.emit_li(temp, const_elems * ELEM)
                self.emit_binop_long("+", reg, reg, temp)
                self.int_temps.release(temp)

    def emit_shift_add(self, reg: str, index_reg: str, scale: int = 1) -> None:
        """reg += index_reg * 8 * scale (ISA hook)."""
        raise NotImplementedError

    def _reduced_for_plan(self, access: A.ArrayRef, plan: LoopPlan,
                          banned: set[str]) -> bool:
        match = match_access(access.index, plan.iv_name, banned)
        if match is None:
            return False
        inv, const, scale = match
        key, _disp, _style = self._group_key(access.name, inv, const, scale)
        return key in plan.groups

    def _iv_used_outside(self, stmts: list[A.Stmt], iv: str,
                         reduced_indexes: set[int]) -> bool:
        """Does the body read the IV other than inside reduced indexes?"""

        def expr_uses(expr: A.Expr | None) -> bool:
            if expr is None or id(expr) in reduced_indexes:
                return False
            if isinstance(expr, A.VarRef):
                return expr.name == iv
            if isinstance(expr, (A.Unary, A.Cast)):
                return expr_uses(expr.operand)
            if isinstance(expr, (A.Binary, A.Logical)):
                return expr_uses(expr.left) or expr_uses(expr.right)
            if isinstance(expr, A.ArrayRef):
                return expr_uses(expr.index)
            if isinstance(expr, A.Call):
                return any(expr_uses(a) for a in expr.args)
            return False

        def visit(stmt_list: list[A.Stmt]) -> bool:
            for stmt in stmt_list:
                if isinstance(stmt, A.AssignStmt):
                    if expr_uses(stmt.value):
                        return True
                    if isinstance(stmt.target, A.ArrayRef) and expr_uses(
                        stmt.target.index
                    ):
                        return True
                elif isinstance(stmt, A.DeclStmt) and expr_uses(stmt.init):
                    return True
                elif isinstance(stmt, A.ExprStmt) and expr_uses(stmt.expr):
                    return True
                elif isinstance(stmt, A.ReturnStmt) and expr_uses(stmt.value):
                    return True
                elif isinstance(stmt, A.IfStmt):
                    if expr_uses(stmt.cond) or visit(stmt.then_body) or visit(
                        stmt.else_body
                    ):
                        return True
                elif isinstance(stmt, A.WhileStmt):
                    if expr_uses(stmt.cond) or visit(stmt.body):
                        return True
                elif isinstance(stmt, A.ForStmt):
                    pieces = [stmt.init, stmt.update]
                    if expr_uses(stmt.cond) or visit([p for p in pieces if p]):
                        return True
                    if visit(stmt.body):
                        return True
                elif isinstance(stmt, (A.RegionStmt, A.BlockStmt)):
                    if visit(stmt.body):
                        return True
            return False

        return visit(stmts)

    def _hoist_globals(self, body: list[A.Stmt], banned: set[str],
                       body_has_calls: bool) -> list:
        """Load loop-invariant global scalars into registers for the body."""
        if body_has_calls:
            return []
        reads: set[str] = set()
        _global_scalar_reads(body, self.symbols, reads)
        hoists = []
        for name in sorted(reads):
            if name in banned or name in self.bindings:
                continue
            info = self.symbols.globals[name]
            is_fp = info.type == A.DOUBLE
            reg = self.alloc_var_reg(is_fp)
            if reg is None:
                continue
            addr_temp = self.int_temps.acquire(0) if is_fp else reg
            self.emit_load_global_scalar(reg, name, is_fp, addr_temp)
            if is_fp:
                self.int_temps.release(addr_temp)
            from repro.compiler.backend_base import Binding

            old = self.bindings.get(name)
            self.bindings[name] = Binding(kind="reg", reg=reg, is_fp=is_fp)
            hoists.append((name, old, reg, is_fp))
        return hoists

    def _hoist_fp_consts(self, body: list[A.Stmt]) -> list[tuple[int, str]]:
        """LICM for FP literals: materialize each distinct constant used in
        the loop body once, in the preheader (GCC keeps such constants in
        registers across the loop). Bounded by spare FP variable registers;
        constants an enclosing loop already hoisted are reused for free."""
        from repro.common import f64_to_bits

        values: dict[int, float] = {}

        def from_expr(expr: A.Expr | None) -> None:
            if expr is None:
                return
            if isinstance(expr, A.FloatLit):
                values.setdefault(f64_to_bits(expr.value), expr.value)
            elif isinstance(expr, (A.Unary, A.Cast)):
                from_expr(expr.operand)
            elif isinstance(expr, (A.Binary, A.Logical)):
                from_expr(expr.left)
                from_expr(expr.right)
            elif isinstance(expr, A.ArrayRef):
                from_expr(expr.index)
            elif isinstance(expr, A.Call):
                for arg in expr.args:
                    from_expr(arg)

        def visit(stmts: list[A.Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, A.AssignStmt):
                    from_expr(stmt.value)
                    if isinstance(stmt.target, A.ArrayRef):
                        from_expr(stmt.target.index)
                elif isinstance(stmt, A.DeclStmt):
                    from_expr(stmt.init)
                elif isinstance(stmt, A.ExprStmt):
                    from_expr(stmt.expr)
                elif isinstance(stmt, A.ReturnStmt):
                    from_expr(stmt.value)
                elif isinstance(stmt, A.IfStmt):
                    from_expr(stmt.cond)
                    visit(stmt.then_body)
                    visit(stmt.else_body)
                elif isinstance(stmt, A.WhileStmt):
                    from_expr(stmt.cond)
                    visit(stmt.body)
                elif isinstance(stmt, A.ForStmt):
                    pieces = [p for p in (stmt.init, stmt.update) if p]
                    visit(pieces)
                    from_expr(stmt.cond)
                    visit(stmt.body)
                elif isinstance(stmt, (A.RegionStmt, A.BlockStmt)):
                    visit(stmt.body)

        visit(body)
        hoists: list[tuple[int, str]] = []
        for bits in sorted(values):
            if bits in self.fp_const_regs:
                continue  # an enclosing loop already hoisted it
            if len(self.var_fp_pool) <= 2:
                break
            reg = self.alloc_var_reg(True)
            if reg is None:
                break
            self.emit_fp_const(reg, values[bits])
            self.fp_const_regs[bits] = reg
            hoists.append((bits, reg))
        return hoists

    def _unhoist_fp_consts(self, hoists: list[tuple[int, str]]) -> None:
        for bits, reg in hoists:
            del self.fp_const_regs[bits]
            self.free_var_reg(reg, True)

    def _hoist_invariant_exprs(
        self, body: list[A.Stmt], banned: set[str],
        reduced_indexes: set[int] = frozenset(),
    ) -> list[tuple[tuple, str]]:
        """Classic LICM: compute loop-invariant integer expressions (index
        arithmetic like ``jj*nx``) once in the preheader. GCC does this at
        -O2 in every version, so it applies under both profiles.
        ``reduced_indexes`` are index expressions strength reduction already
        claimed — they are never evaluated, so hoisting their pieces would
        only waste registers and preheader work."""
        from repro.compiler.exprcache import expr_key, is_interesting

        candidates: dict[tuple, A.Expr] = {}

        def consider(expr: A.Expr | None) -> None:
            if expr is None or id(expr) in reduced_indexes:
                return
            if (
                isinstance(expr, A.Binary)
                and expr.type == A.LONG
                and is_interesting(expr)
                and _is_invariant(expr, banned)
            ):
                key = expr_key(expr)
                if key is not None:
                    candidates.setdefault(key, expr)
                    return  # maximal invariant subtree; don't descend
            if isinstance(expr, (A.Unary, A.Cast)):
                consider(expr.operand)
            elif isinstance(expr, (A.Binary, A.Logical)):
                consider(expr.left)
                consider(expr.right)
            elif isinstance(expr, A.ArrayRef):
                consider(expr.index)
            elif isinstance(expr, A.Call):
                for arg in expr.args:
                    consider(arg)

        def visit(stmts: list[A.Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, A.AssignStmt):
                    consider(stmt.value)
                    if isinstance(stmt.target, A.ArrayRef):
                        consider(stmt.target.index)
                elif isinstance(stmt, A.DeclStmt):
                    consider(stmt.init)
                elif isinstance(stmt, A.ExprStmt):
                    consider(stmt.expr)
                elif isinstance(stmt, A.ReturnStmt):
                    consider(stmt.value)
                elif isinstance(stmt, A.IfStmt):
                    consider(stmt.cond)
                    visit(stmt.then_body)
                    visit(stmt.else_body)
                elif isinstance(stmt, A.WhileStmt):
                    consider(stmt.cond)
                    visit(stmt.body)
                elif isinstance(stmt, A.ForStmt):
                    visit([p for p in (stmt.init, stmt.update) if p])
                    consider(stmt.cond)
                    visit(stmt.body)
                elif isinstance(stmt, (A.RegionStmt, A.BlockStmt)):
                    visit(stmt.body)

        visit(body)
        hoists: list[tuple[tuple, str]] = []
        for key, expr in candidates.items():
            if key in self.licm_exprs:
                continue  # an enclosing loop already hoisted it
            if len(self.var_int_pool) <= 3:
                break
            value = self.gen_expr(expr)
            reg = self.alloc_var_reg(False)
            if reg is None:
                self.release(value)
                break
            if value.reg != reg:
                self.emit_move(reg, value.reg, False)
            self.release(value)
            self.licm_exprs[key] = reg
            hoists.append((key, reg))
        return hoists

    def _unhoist_invariant_exprs(self, hoists: list[tuple[tuple, str]]) -> None:
        for key, reg in hoists:
            del self.licm_exprs[key]
            self.free_var_reg(reg, False)

    def _hoist_array_bases(self, accesses: list[A.ArrayRef], plan: LoopPlan,
                           banned: set[str]) -> list[tuple[str, str]]:
        """Hoist &array for accesses left on the generic path (all compilers
        keep array base addresses in registers across loops)."""
        names: list[str] = []
        for access in accesses:
            if access.name in names or access.name in self.array_base_regs:
                continue
            if self._reduced_for_plan(access, plan, banned):
                continue
            names.append(access.name)
        hoists: list[tuple[str, str]] = []
        for name in names[:4]:
            # bounded: leave registers for inner loops' own streams/IVs
            if len(self.var_int_pool) <= 4:
                break
            reg = self.alloc_var_reg(False)
            if reg is None:
                break
            self.emit_global_addr(reg, name)
            self.array_base_regs[name] = reg
            hoists.append((name, reg))
        return hoists

    def _unhoist_array_bases(self, hoists: list[tuple[str, str]]) -> None:
        for name, reg in hoists:
            del self.array_base_regs[name]
            self.free_var_reg(reg, False)

    def _release_loop_regs(self, released, iv_is_decl: bool, iv: str,
                           binding) -> None:
        for reg, is_fp in released:
            self.free_var_reg(reg, is_fp)
        if iv_is_decl:
            del self.bindings[iv]
            if binding.kind == "reg":
                self.free_var_reg(binding.reg, False)
