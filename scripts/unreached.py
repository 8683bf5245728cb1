#!/usr/bin/env python3
"""Lists library code that no executable reaches, and Options nothing sets.

Builds the root tree (tests, benches, examples) and perfbench at -O0 with
-ffunction-sections -fdata-sections, linked with --gc-sections, into
build-unreached/. The linker then keeps a library function in an executable
only if something that executable runs can call it, so `nm` of the library
objects diffed against `nm` of every executable gives:

  - functions in no executable: nothing any main can reach;
  - functions only tests reach: kept only by the tests/ executables.

-O0 matters: at -O2 a function inlined into callers in its own file leaves
no symbol in the executable and would be listed falsely.

It also parses the Options structs of the serving stack and lists the
fields that no code outside the struct's own .h/.cc assigns (an assignment
`.field = ...`, `.field.x = ...` or `.field[...] = ...` in a file that names
the owning type), and counts the independently settable Options values:
each field counts 1, a field of a plain struct type (TenantClass) counts
that struct's fields, and a field whose type is another Options struct
counts 0 because that struct is counted once on its own.

Usage: scripts/unreached.py  (builds incrementally, then reports)

Prints a report and exits 0; only a failed build exits 1. The lists are
candidates to review, not a gate: scripts/check.sh unreached runs this and
always exits 0.
"""

import collections
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-unreached")
SERVING = ("net", "serve", "shard", "load", "obs", "ingest", "stream")
SCAN_DIRS = ("src", "tests", "bench", "examples", "perfbench")
SOURCE_EXT = (".h", ".cc", ".cpp")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    flags = [
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    ]
    trees = [(ROOT, os.path.join(BUILD, "root")),
             (os.path.join(ROOT, "perfbench"), os.path.join(BUILD, "perfbench"))]
    for src, out in trees:
        for cmd in (["cmake", "-S", src, "-B", out] + flags,
                    ["cmake", "--build", out, "-j", jobs]):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("unreached: build step failed: " + " ".join(cmd))
                return False
    return True


def nm(path):
    """(mangled name, type) of every defined symbol in an object or binary."""
    out = subprocess.run(["nm", "--defined-only", "-P", path],
                         capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            yield parts[0], parts[1]


def demangle(names):
    names = list(names)
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(names, out.splitlines()))


def library_functions():
    """Mangled name -> module (`src/<dir>`) for every global function."""
    lib = os.path.join(BUILD, "root", "src", "CMakeFiles", "tsdm.dir")
    funcs = {}
    for dirpath, _, files in os.walk(lib):
        for f in files:
            if not f.endswith(".o"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, f), lib)
            module = "src/" + rel.split(os.sep)[0]
            for name, kind in nm(os.path.join(dirpath, f)):
                if kind == "T":
                    funcs[name] = module
    return funcs


def executables():
    """(path, is_test) of every linked executable in the build."""
    found = []
    for dirpath, dirs, files in os.walk(BUILD):
        dirs[:] = [d for d in dirs if d != "CMakeFiles"]
        for f in files:
            path = os.path.join(dirpath, f)
            if not os.access(path, os.X_OK) or f.endswith((".o", ".a")):
                continue
            with open(path, "rb") as fh:
                if fh.read(4) != b"\x7fELF":
                    continue
            is_test = os.path.relpath(dirpath, BUILD).split(os.sep)[1:2] == [
                "tests"]
            found.append((path, is_test))
    return sorted(found)


def report_functions():
    funcs = library_functions()
    exes = executables()
    in_test, in_other = set(), set()
    for path, is_test in exes:
        syms = {name for name, kind in nm(path) if kind in "TtWw"}
        (in_test if is_test else in_other).update(syms & funcs.keys())
    names = demangle(funcs)
    # Constructor and destructor variants (C1/C2, D0/D1/D2) demangle alike:
    # a function is reached when any of its variants is.
    by_func = collections.defaultdict(lambda: [None, False, False])
    for mangled, module in funcs.items():
        entry = by_func[names[mangled]]
        entry[0] = module
        entry[1] |= mangled in in_other
        entry[2] |= mangled in in_test
    unreached = collections.defaultdict(list)
    test_only = collections.defaultdict(list)
    for func, (module, other, test) in by_func.items():
        if not other and not test:
            unreached[module].append(func)
        elif not other:
            test_only[module].append(func)
    tests = sum(1 for _, t in exes if t)
    print(f"== functions: {len(by_func)} defined in libtsdm, "
          f"{len(exes)} executables ({tests} tests)")
    print(f"   in no executable: {sum(map(len, unreached.values()))}, "
          f"only in tests: {sum(map(len, test_only.values()))}")
    modules = sorted(set(m for m, _, _ in by_func.values()))
    for module in modules:
        dead, test = sorted(unreached[module]), sorted(test_only[module])
        if not dead and not test:
            continue
        tag = "serving" if module.split("/")[1] in SERVING else "technique"
        print(f"-- {module} ({tag}): {len(dead)} in no executable, "
              f"{len(test)} only in tests")
        for func in dead:
            print(f"   unreached  {func}")
        for func in test:
            print(f"   test-only  {func}")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def strip_templates(decl):
    out, depth = [], 0
    for ch in decl:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def parse_structs(path):
    """Qualified struct name -> [(field, type)] for the structs in a header.

    A struct nested in a class is named `Class::Struct`. Only plain data
    members are returned: statics, usings and member functions are skipped.
    """
    text = strip_comments(open(path).read())
    structs = {}
    scope = []  # (name or None, brace depth at which it opened)
    depth = 0
    decl = ""
    for tok in re.split(r"([{};])", text):
        if tok == "{":
            m = re.search(r"\b(?:struct|class)\s+(\w+)[^()]*$", decl)
            scope.append((m.group(1) if m else None, depth))
            if m and re.search(r"\bstruct\b", decl):
                structs.setdefault(qualify(scope), [])
            depth += 1
            decl = ""
        elif tok == "}":
            depth -= 1
            if scope and scope[-1][1] == depth:
                scope.pop()
            decl = ""
        elif tok == ";":
            name = qualify(scope)
            if name in structs and scope[-1][1] == depth - 1:
                field = parse_field(decl)
                if field:
                    structs[name].append(field)
            decl = ""
        else:
            decl += tok
    return structs


def qualify(scope):
    names = [n for n, _ in scope]
    if not names or names[-1] is None:
        return None
    return "::".join(n for n in names if n)


def parse_field(decl):
    decl = " ".join(decl.split())
    decl = re.sub(r"^(public|private|protected):\s*", "", decl)
    if not decl or re.match(r"(static|using|friend|typedef|enum)\b", decl):
        return None
    head = strip_templates(decl.split("=")[0])
    if "(" in head or "operator" in head:
        return None
    m = re.match(r"(.+?)\s*\b(\w+)\s*(\[[^\]]*\])?$", head.strip())
    return (m.group(2), m.group(1).strip()) if m else None


def source_files():
    for top in SCAN_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                if f.endswith(SOURCE_EXT):
                    yield os.path.join(dirpath, f)


def report_options():
    owner = {}    # struct -> (header, owning type token)
    fields = {}   # struct -> [(field, type)]
    for module in SERVING:
        mdir = os.path.join(ROOT, "src", module)
        for f in sorted(os.listdir(mdir)):
            if not f.endswith(".h"):
                continue
            header = os.path.join(mdir, f)
            for name, flds in parse_structs(header).items():
                fields[name] = flds
                owner[name] = (header, name.split("::")[0])
    options = sorted(n for n in fields if n.split("::")[-1].endswith("Options"))

    def resolve(type_name, context):
        type_name = type_name.replace("const ", "").strip()
        scope = context.split("::")[:-1]
        while True:
            cand = "::".join(scope + [type_name])
            if cand in fields:
                return cand
            if not scope:
                return None
            scope.pop()

    # A file that sets a nested struct's field may name only the outer type:
    # `options.server.queue.capacity` names ShardRouter, not RequestQueue.
    tokens = {name: {owner[name][1]} for name in fields}
    changed = True
    while changed:
        changed = False
        for parent, flds in fields.items():
            for _, ftype in flds:
                child = resolve(ftype, parent)
                if child and not tokens[parent] <= tokens[child]:
                    tokens[child] |= tokens[parent]
                    changed = True

    def count(name):
        total = 0
        for _, ftype in fields[name]:
            child = resolve(ftype, name)
            if child is None:
                total += 1
            elif child not in options:
                total += count(child)
        return total

    texts = {}
    for path in source_files():
        texts[path] = strip_comments(open(path).read())
    unset = []
    for name in options:
        header = owner[name][0]
        own = {header, header[:-2] + ".cc"}
        naming = [path for path, text in texts.items() if path not in own and
                  any(re.search(r"\b" + t + r"\b", text) for t in tokens[name])]
        for field, _ in fields[name]:
            use = re.compile(r"(?:\.|->)" + field + r"\b")
            assign = re.compile(
                r"(?:\.|->)" + field +
                r"(?:\.\w+|\[[^\]\n]*\])*\s*(?:[-+*/]?=(?!=)|"
                r"\.(?:emplace|insert|push_back|emplace_back)\()")
            if any(assign.search(texts[path]) for path in naming):
                continue
            readers = sorted(os.path.relpath(path, ROOT) for path in naming
                             if use.search(texts[path]))
            unset.append((name, field, os.path.relpath(header, ROOT), readers))
    total = sum(count(name) for name in options)
    print(f"== options: {len(options)} Options structs in the serving stack, "
          f"{total} independently settable values")
    for name in options:
        print(f"   {count(name):3d}  {name}")
    print(f"   assigned nowhere outside their own .h/.cc: {len(unset)} "
          f"({sum(1 for u in unset if not u[3])} also read nowhere outside)")
    for name, field, header, readers in unset:
        print(f"   unset  {name}::{field}  ({header})")
        if readers:
            print(f"          read in {', '.join(readers)}")


def main():
    if not build():
        return 1
    report_functions()
    report_options()
    return 0


if __name__ == "__main__":
    sys.exit(main())
