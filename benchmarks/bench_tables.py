"""Tables I-III: descriptive tables regenerated from the library's own
definitions (the ISA table comes from the ISA module, the memory table from
the memory configuration)."""

from repro.experiments import table1, table2, table3


def bench_table1():
    text = table1()
    print("\n" + text)
    assert "VIP" in text


def bench_table2():
    text = table2()
    print("\n" + text)
    assert "m.v.{mul,add,sub,min,max,nop}.{add,min,max}" in text


def bench_table3():
    text = table3()
    print("\n" + text)
    assert "320 GB/s" in text
