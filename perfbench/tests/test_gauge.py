import signal
import time

from run import Block, SpeedGauge


def test_work_time_excludes_the_ticks_inside_the_window():
    block = Block(start=10.0, end=20.0, ticks=[(9.0, 5.0), (12.0, 0.5), (15.0, 0.25)])
    assert block.work_s() == 9.25
    assert block.work_s(11.0, 14.0) == 2.5
    assert block.work_s(16.0, 20.0) == 4.0


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampled_block_ticks_during_the_work_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    gauge = SpeedGauge(("b16",))
    with gauge.block(sampled=True) as block:
        busy(0.6)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(block.ticks) >= 2
    assert all(block.start <= at < block.end for at, _ in block.ticks)
    assert 0.55 < block.work_s() < block.end - block.start
    assert block.scale > 0.0


def test_unsampled_block_has_no_ticks_inside():
    gauge = SpeedGauge(("b16", "b250"))
    with gauge.block(sampled=False) as block:
        busy(0.3)
    assert block.ticks == []
    assert block.work_s() == block.end - block.start
