package org.apache.spark

/** `SparkContext.listenerBus` is package-private; the benchmark drains it so
  * that its listener has seen every event of a batch before reading counts.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
