package repro.terbench

/** Order statistics used for every reported timing. */
object Stats {

  /** Tail percentiles tried, highest first. */
  val TailLadder: Vector[Double] = Vector(0.999, 0.99, 0.9, 0.75, 0.5)

  /** Samples a tail percentile must leave beyond it. */
  val MinBeyond = 10

  /** 1-based nearest rank of percentile q among n samples. */
  def rank(q: Double, n: Int): Int = math.max(1, math.ceil(q * n - 1e-9).toInt)

  /** Samples strictly beyond the nearest-rank percentile q. */
  def beyond(q: Double, n: Int): Int = n - rank(q, n)

  /** The highest ladder percentile with at least [[MinBeyond]] of n samples
    * beyond it (the median when n is too small for any tail).
    */
  def tailPercentile(n: Int): Double =
    TailLadder.find(q => beyond(q, n) >= MinBeyond).getOrElse(0.5)

  /** Nearest-rank percentile of ascending `sorted`. */
  def percentile(sorted: Array[Double], q: Double): Double = {
    require(sorted.nonEmpty, "percentile of no samples")
    sorted(rank(q, sorted.length) - 1)
  }

  /** Median (mean of the middle two for even sizes). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Label of a percentile, e.g. 0.99 -> "p99", 0.999 -> "p99.9". */
  def label(q: Double): String = {
    val v = BigDecimal(q * 100).setScale(1, BigDecimal.RoundingMode.HALF_UP)
    "p" + (if (v.isWhole) v.toInt.toString else v.toString)
  }
}
