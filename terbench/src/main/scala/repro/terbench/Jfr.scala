package repro.terbench

import java.nio.file.Path
import java.time.Duration
import scala.jdk.CollectionConverters._
import jdk.jfr.Recording
import jdk.jfr.consumer.RecordingFile

/** JDK Flight Recorder cross-check of where an untraced run spends its CPU.
  * Each `jdk.ExecutionSample` is charged to its innermost frame in
  * `repro.{core,index,impute,spark}`, as a replay span is charged to the
  * innermost call boundary. Helpers the replay puts no span around are
  * skipped: `repro.core.Text` (tokens and Jaccard, called from every layer)
  * and the rule predicates of `repro.cdd`, which belong to whichever layer
  * calls them. Samples without a layer frame (JIT, GC, Spark scheduler
  * threads, the benchmark's own loop) are left out of the base.
  */
object Jfr {

  val Layers: Vector[String] = Vector("core", "index", "impute", "spark")

  private val Shared = "repro.core.Text"

  /** Record execution samples every 10 ms while `body` runs. */
  def record[T](file: Path)(body: => T): (T, Map[String, Double]) = {
    val rec = new Recording()
    rec.enable("jdk.ExecutionSample").withPeriod(Duration.ofMillis(10))
    rec.start()
    val out =
      try body
      finally { rec.stop(); rec.dump(file); rec.close() }
    (out, shares(file))
  }

  /** Layer of the innermost layer frame, if any (frames innermost first). */
  def layerOf(frameClasses: Seq[String]): Option[String] =
    frameClasses.iterator
      .filterNot(_.startsWith(Shared))
      .flatMap(c => Layers.find(l => c.startsWith(s"repro.$l.")))
      .nextOption()

  /** Share of attributed samples per layer (and `samples`, the base). */
  def shares(file: Path): Map[String, Double] = {
    val counts = scala.collection.mutable.Map.empty[String, Long].withDefaultValue(0L)
    RecordingFile.readAllEvents(file).asScala
      .filter(_.getEventType.getName == "jdk.ExecutionSample")
      .foreach { e =>
        val st = e.getStackTrace
        if (st != null)
          layerOf(st.getFrames.asScala.toSeq.map(_.getMethod.getType.getName)).foreach(l => counts(l) += 1)
      }
    val total = counts.values.sum.toDouble
    Layers.map(l => l -> (if (total == 0) 0.0 else counts(l) / total)).toMap + ("samples" -> total)
  }
}
