package repro.terbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Named metric values, in insertion order, with units. */
final class MetricSet {
  private val entries = scala.collection.mutable.LinkedHashMap.empty[String, (Double, String)]

  def put(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    require(name.matches("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"), s"bad metric name $name")
    require(unit.matches("[A-Za-z0-9_/%.-]{1,16}"), s"bad unit $unit")
    entries(name) = (value, unit)
  }

  def toSeq: Seq[(String, Double, String)] = entries.iterator.map { case (k, (v, u)) => (k, v, u) }.toSeq
}

/** JVM counters read around a measured region. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.iterator.map(_.getCollectionTime).filter(_ >= 0).sum

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  /** Heap in use after a full collection, in MiB. */
  def retainedHeapMb: Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def uptimeMillis: Long = ManagementFactory.getRuntimeMXBean.getUptime

  def inputArguments: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}

/** Latency samples (nanoseconds per call) of the measured passes. */
final class Latencies(callsPerPass: Int) {
  private val buf = scala.collection.mutable.ArrayBuffer.empty[Double]
  private var arrivals = 0L
  private var nanos    = 0L

  def add(callNanos: Long, arrivalsInCall: Int): Unit = {
    buf += callNanos / 1e6
    arrivals += arrivalsInCall
    nanos += callNanos
  }

  def calls: Int = buf.size
  def totalArrivals: Long = arrivals
  def totalNanos: Long = nanos

  /** The tail percentile is chosen from one pass's call count, so it does
    * not change with how many passes fit in the run.
    */
  def tailQ: Double = Stats.tailPercentile(callsPerPass)

  def report(m: MetricSet): String = {
    val sorted = buf.toArray.sorted
    val q      = tailQ
    m.put("throughput_arrivals_per_s", arrivals / (nanos / 1e9), "1/s")
    m.put("latency_p50_ms", Stats.percentile(sorted, 0.5), "ms")
    m.put("latency_tail_ms", Stats.percentile(sorted, q), "ms")
    s"latency samples: ${sorted.length} calls carrying $arrivals arrivals; tail percentile ${Stats.label(q)} " +
      s"(${Stats.beyond(q, callsPerPass)} of $callsPerPass calls per pass beyond it)"
  }
}
