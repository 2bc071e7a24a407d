"""Fresh-process set-up probe: bring one workload's model to ready.

Run as ``python probe.py chain18|chain27`` with the package importable. It
imports ``opfsens``, reads the bundled case, builds the network and the chain,
then prints one JSON line of phase times in seconds. The parent stops its
clock when that line arrives, so the interpreter's own start-up is counted.
"""

import json
import sys
import time

t0 = time.perf_counter()

import opfsens  # noqa: E402

t1 = time.perf_counter()
case = opfsens.read_case(opfsens.bundled_case_path())
t2 = time.perf_counter()
net, params = opfsens.build_network(case)
if sys.argv[1] == "chain18":
    opfsens.build_chain(net, params, 2, [opfsens.TieLine(0, 7, 1, 4)])
else:
    copies, ties = opfsens.load_chain_config(opfsens.bundled_chain_config_path())
    opfsens.build_chain(net, params, copies, ties)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "read_case_s": t2 - t1, "build_s": t3 - t2}), flush=True)
