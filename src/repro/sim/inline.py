"""Mechanical inlining of pre-bound executors for block translation.

The decoders build each instruction's ``execute`` as a tiny closure that
captures its decode-time constants (register indices, immediates, branch
targets) as *default arguments*::

    def execute(m, rd=rd, rs1=rs1, imm=imm):
        m.r[rd] = (m.r[rs1] + imm) & MASK64

That convention makes the bodies mechanically inlinable. The expensive
analysis happens once per ``__code__`` object (every ``addi`` shares
one): the body AST is recovered from source, the ``m.r``/``m.f``/
``m.memory.X`` attribute chains are rewritten to pre-bound names, each
captured name is replaced by a ``«name»`` token, and every local the body
assigns is renamed to a ``«tN»`` temporary. The result is a
machine-independent *source template*. Instantiating an instruction is
then a handful of C-speed ``str.replace`` calls — constants substitute
as parenthesized literals, whole objects as names bound by value into
the generated function's namespace, temporaries as names unique within
the block — yielding plain source lines::

    _R[(14)] = (_R[(14)] + (8)) & (18446744073709551615)

so a translated block dispatches *nothing* per instruction — no closure
call, no attribute walk, no constant rebuild. Because every local is a
fresh temporary, a body may use any local name (``_r``, ``result``) and
can never clobber a block-level name or another instruction's locals.

Executors may delegate to other executors: a statement ``f(m, a, b)``
where ``f`` is a captured executor callable (the addressing-mode bodies
in ``decoder_mem`` call ``apply(m, addr)``; LDP/STP call ``apply1`` and
``apply2``; flag-setting arithmetic calls its NZCV tail) is replaced by
the callee's own template, instantiated with its leading no-default
parameters bound to the call's arguments — a name or literal passes
through, any other expression is evaluated once into a temporary first.
Nesting recurses, so one addressing-mode body and one access body
compose into straight-line code for every combination.

Anything that doesn't fit — bodies with ``return``, nested scopes,
parameters reassigned in the body, unavailable source — makes
:func:`inline_statements` return ``None`` and the translator falls back
to calling the executor, which is always correct; a nested callee that
does not fit stays a call of the bound callable.

With ``fast_memory`` (used when the memory access log is off) the
scalar :class:`~repro.sim.memory.Memory` accessors are additionally
specialized to direct buffer/``struct`` operations behind an
inline bounds check, with the out-of-bounds path delegating to the real
method so fault semantics are unchanged. ``record_memory`` (the batched
path, where the log is *on* for the whole run) does the same but also
appends the ``(addr, size)`` pair inline, in the same order as the real
accessor (record, then access).
"""

from __future__ import annotations

import ast
import inspect
import itertools
import math
import struct
import textwrap

__all__ = ["InlineContext", "inline_statements"]

#: Statement/expression forms that make a body non-inlinable. ``Return``
#: would return from the *block*; nested scopes (lambda, comprehensions)
#: have their own namespaces the substitution pass must not touch;
#: an assignment expression could rebind a name a specialized memory
#: access reads twice; the rest are never generated by the decoders and
#: not worth modeling.
_BANNED = (
    ast.Return, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
    ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try,
    ast.With, ast.AsyncWith, ast.AsyncFor, ast.Yield, ast.YieldFrom,
    ast.Await, ast.Lambda, ast.GeneratorExp, ast.ListComp, ast.SetComp,
    ast.DictComp, ast.NamedExpr,
)

#: Mutable :class:`Memory` attributes that must never be bound by value.
_MEM_DATA_ATTRS = frozenset({"data", "size", "reads", "writes", "recording"})

#: Pre-compiled (unsigned, signed) struct codecs per integer access
#: width; ``unpack_from``/``pack_into`` avoid the intermediate bytes
#: object a slice + ``int.from_bytes`` round-trip allocates.
_INT_STRUCTS = {
    1: (struct.Struct("<B"), struct.Struct("<b")),
    2: (struct.Struct("<H"), struct.Struct("<h")),
    4: (struct.Struct("<I"), struct.Struct("<i")),
    8: (struct.Struct("<Q"), struct.Struct("<q")),
}

#: (code object, memory mode) -> _Template, or None when not inlinable.
#: The mode is None (no specialization), "fast" (log off) or "record"
#: (log on, appends inlined).
_TEMPLATES: dict = {}

#: Deepest chain of nested executor calls inlined into one instruction.
_MAX_NESTING = 4

_MISSING = object()


class _Template:
    """A tokenized, machine-independent source template for one executor
    code object (under one memory mode)."""

    __slots__ = ("text", "params", "n_args", "freevars", "globals_",
                 "mem_attrs", "n_temps", "widths", "calls")

    def __init__(self, text, params, n_args, freevars, globals_, mem_attrs,
                 n_temps, widths, calls):
        self.text = text
        self.params = params          # positional, after ``m``
        self.n_args = n_args          # leading params without a default
        self.freevars = freevars
        self.globals_ = globals_      # names resolved via fn.__globals__
        self.mem_attrs = mem_attrs    # memory methods the body calls
        self.n_temps = n_temps        # «t0»..«tN-1» placeholders
        self.widths = widths          # access widths needing «Lw» limits
        self.calls = calls            # «cK» sites: (callee name, arg texts)


def _token(name):
    return f"«{name}»"


def _const(value):
    """True for values that round-trip exactly through ``repr``."""
    if isinstance(value, bool) or value is None:
        return True
    if isinstance(value, int):
        return True
    if isinstance(value, float) and math.isfinite(value):
        return True
    if isinstance(value, (str, bytes)):
        return True
    return False


def _class_memory_method(attr):
    """Template-time check that ``Memory.<attr>`` is a plain method."""
    from repro.sim.memory import Memory

    if attr in _MEM_DATA_ATTRS:
        return None
    if not callable(getattr(Memory, attr, None)):
        return None
    return f"_MEM_{attr}"


class _Rewrite(ast.NodeTransformer):
    """Replace captured names with «tokens», rename locals to «tN»
    temporaries, hoist machine-state attribute chains to pre-bound names
    and turn nested executor calls into «cK» call sites."""

    def __init__(self, token_names, locals_, callables, fresh, mem_attrs):
        self.token_names = token_names
        self.locals_ = locals_        # local name -> «tN» token
        self.callables = callables    # captured names a call may inline
        self.fresh = fresh
        self.mem_attrs = mem_attrs
        self.calls = []

    def visit_Name(self, node):
        local = self.locals_.get(node.id)
        if local is not None:
            return ast.Name(local, ctx=node.ctx)
        if isinstance(node.ctx, ast.Load) and node.id in self.token_names:
            return ast.Name(_token(node.id), ctx=ast.Load())
        return node

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if not isinstance(node.ctx, ast.Load):
            return node
        value = node.value
        if isinstance(value, ast.Name):
            if value.id == "m":
                if node.attr == "r":
                    return ast.Name("_R", ctx=ast.Load())
                if node.attr == "f":
                    return ast.Name("_F", ctx=ast.Load())
                if node.attr == "memory":
                    return ast.Name("_MEM", ctx=ast.Load())
            elif value.id == "_MEM":
                bound = _class_memory_method(node.attr)
                if bound is not None:
                    self.mem_attrs.add(node.attr)
                    return ast.Name(bound, ctx=ast.Load())
        return node

    def visit_Expr(self, node):
        """``f(m, ...)`` with ``f`` captured: a call site whose callee is
        only known per instance. Arguments other than names and literals
        are evaluated, in order, into temporaries ahead of the site."""
        call = node.value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in self.callables
                and call.args and isinstance(call.args[0], ast.Name)
                and call.args[0].id == "m" and not call.keywords
                and not any(isinstance(a, ast.Starred) for a in call.args)):
            return self.generic_visit(node)
        stmts = []
        texts = []
        for arg in call.args[1:]:
            arg = self.visit(arg)
            if not isinstance(arg, (ast.Name, ast.Constant)):
                temp = self.fresh()
                stmts.append(ast.copy_location(ast.Assign(
                    targets=[ast.Name(temp, ctx=ast.Store())], value=arg),
                    node))
                arg = ast.Name(temp, ctx=ast.Load())
            text = ast.unparse(arg)
            texts.append(f"({text})" if isinstance(arg, ast.Constant)
                         else text)
        marker = _token(f"c{len(self.calls)}")
        self.calls.append((call.func.id, texts))
        stmts.append(ast.Expr(ast.Name(marker, ctx=ast.Load())))
        return stmts


# ---------------------------------------------------------- fast memory

def _call_args(call, name):
    """(positional args, signed flag) of a ``_MEM_load``-family call."""
    signed = False
    for kw in call.keywords:
        if kw.arg == "signed" and isinstance(kw.value, ast.Constant):
            signed = bool(kw.value.value)
        else:
            return None, None
    args = list(call.args)
    if name == "_MEM_load" and len(args) == 3:
        last = args.pop()
        if not isinstance(last, ast.Constant):
            return None, None
        signed = bool(last.value)
    return args, signed


def _evaluated(node, fresh):
    """(lines, name): ``node`` as a name that is safe to read more than
    once. A name already is (nothing in one statement rebinds it); any
    other expression is evaluated once into a fresh temporary."""
    if isinstance(node, ast.Name):
        return [], node.id
    temp = fresh()
    return [f"{temp} = {ast.unparse(node)}"], temp


def _specialize_memory(stmt, fresh, widths, record):
    """Rewrite a whole-statement scalar memory access to direct
    buffer/``struct`` operations behind an inline bounds check.
    Returns replacement source lines, or None to keep the statement.
    Bounds limits are emitted as ``«Lw»`` tokens (the machine's memory
    size is not known at template time); temporaries as ``«tN»``. With
    ``record`` the in-bounds path also appends the ``(addr, size)`` pair
    to the access log — matching the real accessor, which records before
    accessing — for runs where the log is on throughout; without it the
    log must be off throughout.
    """
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.value, ast.Call) \
            and isinstance(stmt.value.func, ast.Name):
        call = stmt.value
        name = call.func.id
        if name not in ("_MEM_load", "_MEM_load_f64", "_MEM_load_f32"):
            return None
        args, signed = _call_args(call, name)
        if args is None:
            return None
        target = ast.unparse(stmt.targets[0])
        if name == "_MEM_load_f64":
            if len(args) != 1:
                return None
            width, fast = 8, "_UPF64(_DATA, {a})[0]"
            slow = "_MEM_load_f64({a})"
        elif name == "_MEM_load_f32":
            if len(args) != 1:
                return None
            width, fast = 4, "_UPF32(_DATA, {a})[0]"
            slow = "_MEM_load_f32({a})"
        else:
            if len(args) != 2 or not isinstance(args[1], ast.Constant):
                return None
            width = args[1].value
            suffix = ", signed=True" if signed else ""
            if width in (1, 2, 4, 8):
                # struct unpack_from beats bytes-slice + int.from_bytes
                # by ~4x (no intermediate bytes object)
                fast = (f"_S{width}(_DATA, {{a}})[0]" if signed
                        else f"_U{width}(_DATA, {{a}})[0]")
            else:
                fast = (f"_IFB(_DATA[{{a}}:{{a}} + {width}], "
                        f"'little'{suffix})")
            slow = f"_MEM_load({{a}}, {width}{suffix})"
        lines, a = _evaluated(args[0], fresh)
        widths.add(width)
        limit = _token(f"L{width}")
        if record:
            return lines + [
                f"if 0 <= {a} <= {limit}:",
                f"    _RAP(({a}, {width}))",
                f"    {target} = {fast.format(a=a)}",
                "else:",
                f"    {target} = {slow.format(a=a)}",
            ]
        return lines + [
            f"{target} = {fast.format(a=a)} if 0 <= {a} <= {limit} "
            f"else {slow.format(a=a)}",
        ]
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call) \
            and isinstance(stmt.value.func, ast.Name):
        call = stmt.value
        name = call.func.id
        if name not in ("_MEM_store", "_MEM_store_f64", "_MEM_store_f32"):
            return None
        if call.keywords:
            return None
        args = list(call.args)
        if name == "_MEM_store":
            if len(args) != 3 or not isinstance(args[1], ast.Constant):
                return None
            width = args[1].value
            addr, value = args[0], args[2]
            if width in (1, 2, 4, 8):
                store_line = f"    _P{width}(_DATA, {{a}}, {{v}})"
            else:
                store_line = (f"    _DATA[{{a}}:{{a}} + {width}] = "
                              f"({{v}}).to_bytes({width}, 'little')")
            slow_call = f"    _MEM_store({{a}}, {width}, {{v}})"
        else:
            if len(args) != 2:
                return None
            width = 8 if name == "_MEM_store_f64" else 4
            pack = "_PKF64" if width == 8 else "_PKF32"
            addr, value = args[0], args[1]
            store_line = f"    {pack}(_DATA, {{a}}, {{v}})"
            slow_call = f"    {name}({{a}}, {{v}})"
        lines, a = _evaluated(addr, fresh)
        if any(isinstance(n, ast.Call) for n in ast.walk(value)):
            more, v = _evaluated(value, fresh)
            lines += more
        else:
            # no call, so no side effect: evaluating it after the bounds
            # check, on whichever path runs, reads the same state
            v = ast.unparse(value)
        widths.add(width)
        lines.append(f"if 0 <= {a} <= {_token(f'L{width}')}:")
        if record:
            lines.append(f"    _WAP(({a}, {width}))")
        lines += [
            store_line.format(a=a, v=v),
            "else:",
            slow_call.format(a=a, v=v),
        ]
        return lines
    return None


# ------------------------------------------------------------- templates

def _build_template(fn, mode):
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except Exception:  # noqa: BLE001 — any retrieval/parse failure: no inline
        return None
    node = tree.body[0] if tree.body else None
    if not isinstance(node, ast.FunctionDef):
        return None
    args = node.args
    if (args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs
            or args.kw_defaults):
        return None
    params = [a.arg for a in args.args]
    if not params or params[0] != "m":
        return None
    substituted = set(params[1:])
    loads: set[str] = set()
    locals_: dict[str, str] = {}  # in first-assignment order
    for stmt in node.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, _BANNED):
                return None
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Load):
                    loads.add(sub.id)
                elif sub.id in substituted or sub.id == "m":
                    return None  # parameter reassigned: can't substitute
                elif sub.id not in locals_:
                    locals_[sub.id] = _token(f"t{len(locals_)}")

    code = fn.__code__
    freevars = [n for n in code.co_freevars if n not in substituted]
    fn_globals = fn.__globals__
    globals_ = sorted(
        n for n in loads
        if n not in substituted and n not in freevars and n not in locals_
        and n != "m" and n in fn_globals
    )  # names missing here are builtins: left for normal resolution
    token_names = substituted | set(freevars) | set(globals_)
    temp_counter = [len(locals_)]

    def fresh():
        name = _token(f"t{temp_counter[0]}")
        temp_counter[0] += 1
        return name

    mem_attrs: set[str] = set()
    rewriter = _Rewrite(token_names, locals_, substituted | set(freevars),
                        fresh, mem_attrs)
    widths: set[int] = set()
    lines = []
    for stmt in node.body:
        rewritten = rewriter.visit(stmt)
        for piece in (rewritten if isinstance(rewritten, list)
                      else [rewritten]):
            if mode is not None:
                replacement = _specialize_memory(piece, fresh, widths,
                                                 mode == "record")
                if replacement is not None:
                    lines.extend(replacement)
                    continue
            if isinstance(piece, ast.Pass):
                continue
            lines.extend(ast.unparse(piece).splitlines())
    return _Template(
        text="\n".join(lines),
        params=params[1:],
        n_args=len(params) - 1 - len(args.defaults),
        freevars=freevars,
        globals_=globals_,
        mem_attrs=sorted(mem_attrs),
        n_temps=temp_counter[0],
        widths=sorted(widths),
        calls=rewriter.calls,
    )


def _template(fn, mode):
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    key = (code, mode)
    template = _TEMPLATES.get(key, _MISSING)
    if template is _MISSING:
        template = _build_template(fn, mode)
        _TEMPLATES[key] = template
    return template


# -------------------------------------------------------------- contexts

class InlineContext:
    """Per-translator binding table for inlined code.

    Accumulates the objects generated block functions reference —
    ``_R``/``_F`` (the register files), bound memory methods, executor
    globals — keyed by stable names. The same context serves every block
    of one translator, so bindings are assigned once and shared.
    """

    def __init__(self, machine, fast_memory=False, record_memory=False):
        if fast_memory and record_memory:
            raise ValueError("fast_memory and record_memory are exclusive")
        self.machine = machine
        self.mode = ("fast" if fast_memory
                     else "record" if record_memory else None)
        memory = machine.memory
        self.bindings = {"_R": machine.r, "_F": machine.f, "_MEM": memory}
        if self.mode is not None:
            from repro.sim.memory import _F32, _F64

            self.bindings.update({
                "_DATA": memory.data,
                "_UPF64": _F64.unpack_from,
                "_PKF64": _F64.pack_into,
                "_UPF32": _F32.unpack_from,
                "_PKF32": _F32.pack_into,
                "_IFB": int.from_bytes,
            })
            for width, (unsigned, signed) in _INT_STRUCTS.items():
                self.bindings[f"_U{width}"] = unsigned.unpack_from
                self.bindings[f"_S{width}"] = signed.unpack_from
                self.bindings[f"_P{width}"] = unsigned.pack_into
        if record_memory:
            self.bindings["_RAP"] = memory.reads.append
            self.bindings["_WAP"] = memory.writes.append
        self._mem_methods: dict[str, str] = {}
        self._order: dict[str, int] = {}

    def bound_names(self, words):
        """The names among ``words`` that are bound here, in binding order.

        Costs O(len(words)), not O(bindings): ``bindings`` only grows
        (:meth:`bind` never rebinds or removes a name), so each name's
        position is fixed once bound and the index only has to be
        extended by the names bound since the last call.
        """
        bindings, order = self.bindings, self._order
        if len(order) < len(bindings):
            for name in itertools.islice(bindings, len(order), None):
                order[name] = len(order)
        return sorted((w for w in words if w in bindings),
                      key=order.__getitem__)

    def bind(self, name, value):
        """Bind ``value`` under ``name`` (or an alias on conflict);
        returns the name to reference it by."""
        bindings = self.bindings
        existing = bindings.get(name, _MISSING)
        if existing is value:
            return name
        if existing is _MISSING:
            bindings[name] = value
            return name
        n = 2
        while True:
            alias = f"{name}_{n}"
            existing = bindings.get(alias, _MISSING)
            if existing is value:
                return alias
            if existing is _MISSING:
                bindings[alias] = value
                return alias
            n += 1

    def bind_memory_method(self, attr):
        """Bind ``machine.memory.<attr>`` once; returns its name, or
        None for non-method attributes (those stay live lookups)."""
        name = self._mem_methods.get(attr)
        if name is None:
            if attr in _MEM_DATA_ATTRS:
                return None
            value = getattr(self.machine.memory, attr, None)
            if not callable(value):
                return None
            name = self.bind(f"_MEM_{attr}", value)
            self._mem_methods[attr] = name
        return name


# ------------------------------------------------------------ public API

def inline_statements(inst, ctx, fresh):
    """Source lines (no indentation) inlining ``inst.execute``, or None.

    ``ctx`` accumulates name bindings for the generated function's
    namespace; ``fresh`` yields temporary names unique within the block
    (the inlined body's locals and the fast memory path's scratch).
    """
    return _instantiate(inst.execute, ctx, fresh, (), 0)


def _instantiate(fn, ctx, fresh, args, depth):
    """Lines for ``fn``'s template with its leading no-default
    parameters bound to the source texts ``args``, or None."""
    template = _template(fn, ctx.mode)
    if template is None or template.n_args != len(args):
        return None
    defaults = fn.__defaults__ or ()
    if len(defaults) != len(template.params) - len(args):
        return None

    bind = ctx.bind
    text = template.text
    values = dict(zip(template.params[len(args):], defaults))
    if template.freevars:
        closure = fn.__closure__ or ()
        cells = dict(zip(fn.__code__.co_freevars, closure))
        for name in template.freevars:
            cell = cells.get(name)
            if cell is None:
                return None
            try:
                values[name] = cell.cell_contents
            except ValueError:
                return None
    fn_globals = fn.__globals__
    for name in template.globals_:
        value = fn_globals.get(name, _MISSING)
        if value is _MISSING:
            return None  # global vanished since the template was built
        values[name] = value
    for attr in template.mem_attrs:
        if ctx.bind_memory_method(attr) != f"_MEM_{attr}":
            return None  # instance attribute shadows the method: bail

    def sub(name):
        value = values[name]
        # parenthesized repr keeps any literal a primary expression
        return f"({value!r})" if _const(value) else bind(name, value)

    # substitute only the tokens still present: a captured executor
    # that every call site inlines needs no binding of its own
    resolved = dict(zip(template.params, args))
    for i in range(template.n_temps):
        resolved[f"t{i}"] = fresh()
    for name in values:
        token = _token(name)
        if token in text or any(token in t for _c, ts in template.calls
                                for t in ts):
            resolved[name] = sub(name)
    for name, value in resolved.items():
        text = text.replace(_token(name), value)
    size = ctx.machine.memory.size
    for width in template.widths:
        text = text.replace(_token(f"L{width}"), str(size - width))
    lines = text.splitlines()
    if not template.calls:
        return lines

    out = []
    for line in lines:
        stripped = line.lstrip()
        if not (stripped.startswith("«c") and stripped.endswith("»")):
            out.append(line)
            continue
        callee_name, arg_texts = template.calls[int(stripped[2:-1])]
        call_args = [resolved.get(t[1:-1], t) if t.startswith("«") else t
                     for t in arg_texts]
        callee = values.get(callee_name, _MISSING)
        body = None
        if callee is not _MISSING and depth < _MAX_NESTING:
            body = _instantiate(callee, ctx, fresh, call_args, depth + 1)
        if body is None:
            target = (sub(callee_name) if callee is not _MISSING
                      else resolved[callee_name])
            body = [f"{target}(m{''.join(', ' + a for a in call_args)})"]
        indent = line[:len(line) - len(stripped)]
        if not body:
            body = ["pass"]  # keep an enclosing suite non-empty
        out.extend(indent + b for b in body)
    return out
