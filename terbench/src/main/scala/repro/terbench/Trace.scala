package repro.terbench

import java.io.{BufferedWriter, FileOutputStream, OutputStreamWriter}
import java.nio.charset.StandardCharsets
import java.util.zip.GZIPOutputStream
import scala.collection.mutable

/** In-memory span recorder for one thread.
  *
  * A span has a name, start and end (`System.nanoTime`), the span open when
  * it began (its parent, -1 for a root) and a trace id: the `rid` of the
  * arrival it serves. Spans are kept in growable primitive columns and
  * written out once, after the run.
  */
final class Tracer(initialCapacity: Int = 1 << 16) {
  private val names   = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]

  private var cap    = math.max(16, initialCapacity)
  private var nameOf = new Array[Int](cap)
  private var starts = new Array[Long](cap)
  private var ends   = new Array[Long](cap)
  private var parent = new Array[Int](cap)
  private var traces = new Array[Long](cap)
  private var n      = 0
  private var open   = -1

  /** Trace id given to spans begun from now on. */
  var traceId: Long = 0L

  def size: Int = n

  /** Id of a span name; resolve once, outside the hot path. */
  def nameId(name: String): Int = nameIds.getOrElseUpdate(name, { names += name; names.size - 1 })

  def begin(name: Int): Int = {
    if (n == cap) grow()
    val id = n
    nameOf(id) = name
    parent(id) = open
    traces(id) = traceId
    n += 1
    open = id
    starts(id) = System.nanoTime()
    id
  }

  def end(id: Int): Unit = {
    ends(id) = System.nanoTime()
    open = parent(id)
  }

  @inline def span[T](name: Int)(body: => T): T = {
    val id = begin(name)
    val r  = body
    end(id)
    r
  }

  private def grow(): Unit = {
    cap *= 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    starts = java.util.Arrays.copyOf(starts, cap)
    ends = java.util.Arrays.copyOf(ends, cap)
    parent = java.util.Arrays.copyOf(parent, cap)
    traces = java.util.Arrays.copyOf(traces, cap)
  }

  /** Per span name: (calls, total self nanoseconds). */
  def summary: Map[String, (Long, Long)] = {
    require(open == -1, "summary with a span still open")
    val self  = Trace.selfTimes(starts.take(n), ends.take(n), parent.take(n))
    val calls = new Array[Long](names.size)
    val nanos = new Array[Long](names.size)
    var i     = 0
    while (i < n) { calls(nameOf(i)) += 1; nanos(nameOf(i)) += self(i); i += 1 }
    names.indices.map(k => names(k) -> (calls(k), nanos(k))).toMap
  }

  /** Write every span as gzipped tab-separated text, see README.md. */
  def write(path: java.nio.file.Path): Unit = {
    val t0 = if (n == 0) 0L else starts(0)
    val out = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(new FileOutputStream(path.toFile), 1 << 16), StandardCharsets.UTF_8), 1 << 16)
    try {
      out.write("id\tparent\ttrace\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        out.write(s"$i\t${parent(i)}\t${traces(i)}\t${names(nameOf(i))}\t${starts(i) - t0}\t${ends(i) - t0}\n")
        i += 1
      }
    } finally out.close()
  }
}

object Trace {

  /** Self time of every span: its duration minus the part of its interval
    * covered by its children. Spans must be listed in start order, as a
    * [[Tracer]] records them; children may overlap each other or reach past
    * their parent, and only the covered part inside the parent counts.
    */
  def selfTimes(starts: Array[Long], ends: Array[Long], parent: Array[Int]): Array[Long] = {
    val n       = starts.length
    val covered = new Array[Long](n)
    val reached = Array.fill(n)(Long.MinValue) // end of the union of children seen so far
    var i       = 0
    while (i < n) {
      val p = parent(i)
      if (p >= 0) {
        val lo = math.max(math.max(starts(i), starts(p)), reached(p))
        val hi = math.min(ends(i), ends(p))
        if (hi > lo) covered(p) += hi - lo
        if (hi > reached(p)) reached(p) = hi
      }
      i += 1
    }
    Array.tabulate(n)(k => (ends(k) - starts(k)) - covered(k))
  }
}
